"""Seed-0 reference tables and the comparator that gates every run.

Tolerance: an entry ``x`` matches its reference ``r`` when

    |x - r| <= RTOL * max(|r|, 1),   RTOL = 1e-8,

i.e. relative above 1 and absolute below it.  Defects and scales are
O(1) operator norms or sup norms, so an entry may move by 1e-8 of its
own size or of the unit scale.  This admits the 1e-14 relative drift
allowed for re-ordered arithmetic and a 1.4e-11 relative change of the
kernels (a chirp-z build), with a margin of several hundred, while any
change of method or grid shows.  Rounding-level residuals (exact
algebra, Hermiticity gaps) sit under the floor and are gated by the
acceptance predicates instead.

Regenerate after an intended change of results with
``PYTHONPATH=src python3 benchmarks/reference.py [workload ...]``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np

RTOL = 1e-8
DIRECTORY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def path(workload: str) -> str:
    return os.path.join(DIRECTORY, f"{workload}.json")


def load(workload: str) -> dict:
    """Report name -> {"columns": [...], "rows": [[...]]} at seed 0."""
    with open(path(workload)) as fh:
        return json.load(fh)


def compare_rows(rows, reference_rows, rtol: float = RTOL) -> list:
    """One verdict per reference row; a shape mismatch fails every row."""
    ref = np.asarray(reference_rows, dtype=float)
    got = np.asarray(rows, dtype=float)
    if got.shape != ref.shape:
        return [False] * len(ref)
    ok = np.abs(got - ref) <= rtol * np.maximum(np.abs(ref), 1.0)
    return [bool(x) for x in ok.all(axis=1)]


def write(workload: str) -> None:
    """Run one seed-0 pass of a workload and store its report rows."""
    import workloads

    tables = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        for job in workloads.WORKLOADS[workload](0):
            out = os.path.join(tmp, f"{job.name}.json")
            code = job.run(out)
            report = workloads.read_report(out)
            failing = [name for name, ok in job.predicates(report) if not ok]
            if code != 0 or failing:
                raise SystemExit(f"{workload}/{job.name}: exit {code}, failing {failing}")
            tables[job.name] = {"columns": report["columns"], "rows": report["rows"]}
    os.makedirs(DIRECTORY, exist_ok=True)
    with open(path(workload), "w") as fh:
        json.dump(tables, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    import workloads

    for name in sys.argv[1:] or list(workloads.WORKLOADS):
        write(name)
        print(f"wrote {path(name)}")
