"""Machine record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np
import scipy


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return platform.processor() or "unknown"


def _l3_size():
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        if _read(os.path.join(index, "level")) == "3":
            return _read(os.path.join(index, "size"))
    return "unknown"


def _blas():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked from the library itself."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                get = getattr(lib, symbol)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def record() -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": _blas_threads(),
        "strictq_threads": os.environ.get("STRICTQ_THREADS", "unset"),
        "cpu_model": _cpu_model(),
        "l3_cache": _l3_size(),
    }
