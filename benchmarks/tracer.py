"""Outside-in span recorder for the strictq layers.

The modules of ``strictq`` are the layers.  :meth:`Recorder.install`
wraps each traced public function and rebinds *every* name under which
a ``strictq`` module holds it (``asymptotics`` and ``groupoid`` keep
their own ``weyl_kernel`` binding, ``weyl`` its own ``trig_shift``, and
so on), so calls between layers are seen too.  Nothing in ``src/`` is
changed; :meth:`Recorder.uninstall` restores the original bindings.

A span is ``[id, parent, report, name, start, end, flops]``.  Spans are
held in memory and written once, by :meth:`Recorder.dump`.  The harness
opens one root span per report (:meth:`Recorder.report`); every span
inside it carries that report's id, and its parent is the innermost
open span of its thread, or the report's root for calls made on worker
threads.  A span's self time is its duration minus the part of it
covered by the union of its children; the recorder's own hashing is
recorded as child spans named ``trace.hash`` so that it never counts as
self time of a layer.

For the ``weyl`` functions the recorder also keeps

* ``distinct_frac``: distinct (input arrays, hbar, grids) keys over
  calls, the arrays identified by a BLAKE2 digest of their bytes;
* ``gflop_computed``: floating-point operations computed from the
  argument shapes, not measured.  A complex multiply-add is 8 flops; a
  length-m FFT costs 5 m log2 m.  ``weyl_kernel``: the
  (2n-1) x n_p by n_p x (2n-1) product; ``compose``: 8 n^3;
  ``dequantize``: the n x (4n-3) by (4n-3) x n_p product plus six
  quarter-cell shifts of 2n FFTs each; ``op_norm``: 16/3 n^3 when
  ``eigvalsh`` runs and 32/3 n^3 when ``svdvals`` runs (Householder
  tridiagonal and bidiagonal reduction, complex); ``star_product``: the
  two kernels, the product and the dequantization it triggers.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from math import log2

import numpy as np

#: Traced public functions, per layer (``strictq`` module).
LAYERS = {
    "weyl": ("weyl_kernel", "compose", "op_norm", "dequantize", "star_product"),
    "core": ("sample", "fourier_fiber", "trig_shift"),
    "symbols": ("SymbolField.__call__",),
    "asymptotics": ("check_dirac", "check_vonneumann", "check_norm_limit",
                    "check_norm_continuity", "check_star_limits", "jordan",
                    "quantum_bracket"),
    "groupoid": ("fiber_hat", "semidirect_rep", "wm_correspondence",
                 "canonical_family", "tangent_boundary_check"),
    "landsman": ("landsman_kernel", "weighted_compose", "weighted_op_norm",
                 "hbar_admissible"),
    "gaussian": ("positivity_verdict",),
    "prequant": ("prequant_apply", "poisson_torus", "dirac_identity_check"),
    "rotation": ("represent", "convolve", "rep_matrices"),
    "cli": ("write_report",),
}

ID, PARENT, REPORT, NAME, START, END, FLOPS = range(7)
HASH_SPAN = "trace.hash"


def span_names():
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def metric_names():
    """Every per-layer metric name a traced run reports, in order."""
    out = []
    for name in span_names():
        out += [f"{name}.calls", f"{name}.self_s"]
        if name.startswith("weyl."):
            out += [f"{name}.distinct_frac", f"{name}.gflop_computed"]
    return out


def _digest(array) -> bytes:
    data = np.ascontiguousarray(array)
    return hashlib.blake2b(memoryview(data).cast("B"), digest_size=16).digest()


def _kernel_flops(n, n_p):
    return 8.0 * (2 * n - 1) ** 2 * n_p


def _dequantize_flops(n, n_p):
    return 8.0 * n * (4 * n - 3) * n_p + 6 * 2 * n * 5.0 * n * log2(n)


def _dequantize_np(kernel, pgrid):
    return kernel.grid.n if pgrid is None else pgrid.paxis.n


#: weyl function -> (distinct key, own flops), both from the bound arguments.
WEYL_WORK = {
    "weyl_kernel": (
        lambda f, hbar, qgrid: (_digest(f.values), f.grid, hbar, qgrid),
        lambda f, hbar, qgrid: _kernel_flops(qgrid.n, f.grid.paxis.n),
    ),
    "compose": (
        lambda a, b: (_digest(a.matrix), _digest(b.matrix), a.hbar),
        lambda a, b: 8.0 * a.grid.n ** 3,
    ),
    "op_norm": (
        lambda kernel: (_digest(kernel.matrix), kernel.hbar),
        lambda kernel: 0.0,  # added by the eigvalsh/svdvals hooks
    ),
    "dequantize": (
        lambda kernel, pgrid=None: (_digest(kernel.matrix), kernel.hbar, pgrid),
        lambda kernel, pgrid=None: _dequantize_flops(
            kernel.grid.n, _dequantize_np(kernel, pgrid)),
    ),
    "star_product": (
        lambda f, g, hbar: (_digest(f.values), _digest(g.values), hbar),
        lambda f, g, hbar: (2 * _kernel_flops(f.grid.qaxis.n, f.grid.paxis.n)
                            + 8.0 * f.grid.qaxis.n ** 3
                            + _dequantize_flops(f.grid.qaxis.n, f.grid.paxis.n)),
    ),
}

#: Dense solvers bound in ``weyl`` for ``op_norm``: flops per n x n call.
OP_NORM_SOLVERS = {"eigvalsh": 16.0 / 3.0, "svdvals": 32.0 / 3.0}


class Recorder:
    def __init__(self):
        self.spans = []
        self.keys = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._patches = []

    # ------------------------------------------------------------ spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self):
        stack = self._stack()
        return stack[-1] if stack else self._root

    def _open(self, name, parent):
        span = [next(self._ids), parent[ID] if parent else 0,
                parent[REPORT] if parent else 0, name, time.perf_counter(), None, 0.0]
        self._stack().append(span)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def report(self, name):
        """Root span of one report; spans inside share its report id."""
        root = [next(self._ids), 0, 0, f"report.{name}", time.perf_counter(), None, 0.0]
        root[REPORT] = root[ID]
        self._root = root
        try:
            yield root
        finally:
            root[END] = time.perf_counter()
            self.spans.append(root)
            self._root = None

    def _wrap(self, name, fn, work=None):
        if work is not None:
            signature = inspect.signature(fn)
            key_of, flops_of = work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._parent()
            flops = 0.0
            if work is not None:
                hashing = self._open(HASH_SPAN, parent)
                bound = signature.bind(*args, **kwargs).arguments
                self.keys.setdefault(name, set()).add(key_of(**bound))
                flops = flops_of(**bound)
                self._close(hashing)
            span = self._open(name, parent)
            span[FLOPS] = flops
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _outermost_call(self, name, method):
        @functools.wraps(method)
        def traced(obj, *args, **kwargs):
            local = self._local
            if getattr(local, "in_symbol", False):
                return method(obj, *args, **kwargs)
            local.in_symbol = True
            span = self._open(name, self._parent())
            try:
                return method(obj, *args, **kwargs)
            finally:
                self._close(span)
                local.in_symbol = False

        return traced

    def _flop_hook(self, fn, per_n3):
        @functools.wraps(fn)
        def hooked(matrix, *args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][NAME] == "weyl.op_norm":
                stack[-1][FLOPS] += per_n3 * np.shape(matrix)[0] ** 3
            return fn(matrix, *args, **kwargs)

        return hooked

    # ---------------------------------------------------------- binding

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import strictq.cli  # noqa: F401  (loads every layer)
        from strictq.symbols import SymbolField

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "strictq" or n.startswith("strictq.")]
        for layer, fns in LAYERS.items():
            owner = sys.modules[f"strictq.{layer}"]
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                if fn_name == "SymbolField.__call__":
                    self._patch(SymbolField, "__call__",
                                self._outermost_call(name, SymbolField.__call__))
                    continue
                original = getattr(owner, fn_name)
                work = WEYL_WORK.get(fn_name) if layer == "weyl" else None
                wrapped = self._wrap(name, original, work)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)
        weyl = sys.modules["strictq.weyl"]
        for solver, per_n3 in OP_NORM_SOLVERS.items():
            self._patch(weyl, solver, self._flop_hook(getattr(weyl, solver), per_n3))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # ---------------------------------------------------------- results

    def self_times(self):
        """Span id -> duration minus the union of its children's intervals."""
        children = {}
        for span in self.spans:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
        out = {}
        for span in self.spans:
            start, end = span[START], span[END]
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(span[ID], ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[span[ID]] = (end - start) - covered
        return out

    def layer_metrics(self):
        """Per traced function: calls, self seconds; weyl adds distinct/flops."""
        selfs = self.self_times()
        calls, self_s, flops = {}, {}, {}
        for span in self.spans:
            name = span[NAME]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + selfs[span[ID]]
            flops[name] = flops.get(name, 0.0) + span[FLOPS]
        out = {}
        for name in span_names():
            n = calls.get(name, 0)
            out[f"{name}.calls"] = (n, "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
            if name.startswith("weyl."):
                distinct = len(self.keys.get(name, ()))
                out[f"{name}.distinct_frac"] = (distinct / n if n else 0.0, "ratio")
                out[f"{name}.gflop_computed"] = (flops.get(name, 0.0) / 1e9, "GFLOP")
        return out

    def dump(self, path):
        """JSON lines: a header naming the fields, then one list per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "parent", "report", "name", "start", "end", "flops"]))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
