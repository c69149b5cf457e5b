"""Benchmark of strictq: two workloads, end-to-end metrics, per-layer trace.

Run from the root of a checkout::

    python3 benchmarks/run.py --workload axioms --seed 0 --seconds 60 --trace 0

Workloads (``workloads.py``): ``axioms`` (``strictq axioms``) and
``light`` (``strictq groupoid``, ``strictq landsman`` for three
metrics, ``strictq positivity``, the criterion-07 prequantization sweep
and ``strictq torus``), all at their default configurations.  The load
is a closed loop: one client in one process runs the reports back to
back.  OpenBLAS may use ``nproc`` threads and ``STRICTQ_THREADS`` is 1,
so no more compute threads run at once than there are cores.

End-to-end metrics, ``--trace 0``:

* ``setup_s``: median over three fresh interpreters of the time from
  start until ``strictq.cli`` (and the harness) is imported and the
  inputs are built;
* ``report_s``: median wall seconds of one pass over the workload's
  reports, over the passes that fit in ``--seconds`` (at least one;
  see ``worker.py``);
* ``cpu_s``: median user+system CPU seconds of the same passes;
* ``peak_rss_mb``: peak resident memory of the workload process;
* ``passed_frac``: checks passed over checks attempted.  A check fails
  if its report raises, exits non-zero, fails an acceptance predicate
  or leaves the seed-0 reference (``reference.py``).

``--trace 1`` runs the same passes, then one more with the span
recorder of ``tracer.py`` installed, and reports per-layer metrics:
``report.<name>.wall_s``, each report's median wall seconds over the
untraced passes; ``<module>.<function>.calls`` and ``.self_s`` for
every traced function, ``.distinct_frac`` and ``.gflop_computed`` for
the ``weyl`` ones; and ``trace.overhead_s``, traced minus untraced pass
seconds.
The spans are written to ``.bench_out/<workload>/spans.jsonl``.

Before the result, stdout carries one line with the machine record and
one with the raw samples.  The last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("axioms", "light")
#: Wall-clock budget of one run, after which the workload process is killed.
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def _env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # BLAS threads inside a STRICTQ_THREADS pool would multiply: keep the
    # pool serial so that at most nproc compute threads run at once.
    threads = str(len(os.sched_getaffinity(0)))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    env["STRICTQ_THREADS"] = "1"
    return env


def _start(args, env, root, extra):
    argv = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", os.path.join(root, ".bench_out", args.workload), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchmarkError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def _finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchmarkError("workload process exceeded the run deadline")
    if proc.returncode != 0:
        raise BenchmarkError(f"workload process exited {proc.returncode}")
    return out


def _setup_only(args, env, root, deadline):
    proc, setup = _start(args, env, root, ["--setup-only"])
    _finish(proc, deadline)
    return setup


def measure(args, root):
    """Set-up samples and the worker's result for one run.

    The three set-up samples are taken before, by and after the worker,
    so that they span the run as the passes do.
    """
    deadline = time.perf_counter() + DEADLINE_S
    env = _env(root)
    before = _setup_only(args, env, root, deadline)
    proc, own = _start(args, env, root, [])
    lines = _finish(proc, deadline).strip().splitlines()
    if not lines:
        raise BenchmarkError("workload process printed no result")
    after = _setup_only(args, env, root, deadline)
    return [before, own, after], json.loads(lines[-1])


def metrics(args, setups, result):
    report_s = statistics.median(result["walls"])
    if args.trace:
        out = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["layers"].items()}
        out["trace.overhead_s"] = {"value": result["traced_wall"] - report_s, "unit": "s"}
        return out
    passed = result["attempted"] - result["failed"]
    return {
        "report_s": {"value": report_s, "unit": "s"},
        "cpu_s": {"value": statistics.median(result["cpus"]), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "passed_frac": {"value": passed / result["attempted"], "unit": "ratio"},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "strictq", "cli.py")):
        print("run.py: no strictq sources at ./src/strictq; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        setups, result = measure(args, root)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"machine": result["machine"]}))
    print(json.dumps({"samples": {"setup_s": setups, "walls": result["walls"],
                                  "cpus": result["cpus"], "failures": result["failures"]}}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics(args, setups, result),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
