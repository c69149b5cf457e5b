"""One workload process: set up, run passes, check them, optionally trace.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It prints
``ready`` once ``strictq.cli`` is imported and the inputs are built, so
the parent can time set-up; with ``--setup-only`` it stops there.
Otherwise it runs passes and prints one JSON line with the pass times,
the check counts and (traced) the per-layer metrics.

A pass runs every job of the workload once.  A further pass starts
while it is expected, at the median pass time so far, to end within
``--seconds`` of the first, so a run stays inside its budget; there is
always at least one pass.  Every pass is timed and none is dropped as
a warm-up: an ``axioms`` pass takes about 40 s, and a second one per
run would not fit the benchmark's time budget; the first pass of a
fresh process measured within the pass-to-pass spread of later ones.
A traced run adds one pass with the span recorder installed and checks
that its reports are byte-identical to the untraced pass before it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import machine
import reference
import tracer
import workloads


class Tally:
    """Checks attempted and failed, with a few failure descriptions."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(name)


def _cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pass(jobs, outdir, recorder=None):
    """Run every job once; return (wall s, cpu s, exit codes, wall s per job)."""
    codes, job_walls = [], []
    wall0, cpu0 = time.perf_counter(), _cpu()
    for job in jobs:
        out = os.path.join(outdir, f"{job.name}.json")
        job0 = time.perf_counter()
        try:
            if recorder is None:
                codes.append(job.run(out))
            else:
                with recorder.report(job.name):
                    codes.append(job.run(out))
        except Exception:  # a raising report is a failed check, not a crash
            traceback.print_exc(file=sys.stderr)
            codes.append(None)
        job_walls.append(time.perf_counter() - job0)
    return time.perf_counter() - wall0, _cpu() - cpu0, codes, job_walls


def report_metrics(jobs, job_walls):
    """``report.<name>.wall_s`` for every report of every workload.

    The median over the untraced passes of each report's own wall time;
    0 for the reports of other workloads.
    """
    names = [job.name for build in workloads.WORKLOADS.values() for job in build(0)]
    out = {f"report.{name}.wall_s": (0.0, "s") for name in names}
    for i, job in enumerate(jobs):
        out[f"report.{job.name}.wall_s"] = (
            statistics.median(walls[i] for walls in job_walls), "s")
    return out


def check_pass(jobs, codes, outdir, tables, tally):
    """Exit code, acceptance predicates and reference rows of every report."""
    for job, code in zip(jobs, codes):
        ref_rows = tables[job.name]["rows"]
        tally.add(f"{job.name}: exit {code}", code == 0)
        try:
            report = workloads.read_report(os.path.join(outdir, f"{job.name}.json"))
            predicates = job.predicates(report)
            rows = report["rows"]
        except Exception:
            predicates, rows = [("report readable", False)], []
        for name, ok in predicates:
            tally.add(f"{job.name}: {name}", ok)
        for i, ok in enumerate(reference.compare_rows(rows, ref_rows)):
            tally.add(f"{job.name}: row {i} vs reference", ok)


def _report_bytes(jobs, outdir):
    out = {}
    for job in jobs:
        try:
            with open(os.path.join(outdir, f"{job.name}.json"), "rb") as fh:
                out[job.name] = fh.read()
        except OSError:
            out[job.name] = None
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for reports and spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tables = reference.load(args.workload)
    os.makedirs(args.out, exist_ok=True)
    tally = Tally()
    walls, cpus, job_walls = [], [], []
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start + statistics.median(walls)
                        <= args.seconds):
        wall, cpu, codes, per_job = run_pass(jobs, args.out)
        walls.append(wall)
        cpus.append(cpu)
        job_walls.append(per_job)
        check_pass(jobs, codes, args.out, tables, tally)
    result = {"walls": walls, "cpus": cpus,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}

    if args.trace:
        untraced = _report_bytes(jobs, args.out)
        recorder = tracer.Recorder()
        recorder.install()
        try:
            wall, _, codes, _ = run_pass(jobs, args.out, recorder)
        finally:
            recorder.uninstall()
        check_pass(jobs, codes, args.out, tables, tally)
        traced = _report_bytes(jobs, args.out)
        for job in jobs:
            tally.add(f"{job.name}: traced report byte-identical",
                      traced[job.name] is not None and traced[job.name] == untraced[job.name])
        recorder.dump(os.path.join(args.out, "spans.jsonl"))
        result["layers"] = {**report_metrics(jobs, job_walls), **recorder.layer_metrics()}
        result["traced_wall"] = wall

    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures, machine=machine.record())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
