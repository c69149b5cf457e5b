"""Tests of the benchmark itself: ``python3 -m pytest benchmarks/tests``.

The smoke tests run every workload once at its real configuration
(a few minutes in all, most of it ``axioms``).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import reference
import tracer

from strictq import asymptotics, weyl
from strictq.core import Grid1D, Grid2D, HbarSchedule, sample
from strictq.gaussian import GaussianObservable
from strictq.symbols import gaussian_field

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _span(sid, parent, name, start, end):
    return [sid, parent, 1, name, start, end, 0.0]


def test_self_time_on_synthetic_tree():
    rec = tracer.Recorder()
    rec.spans = [
        _span(1, 0, "report.x", 0.0, 10.0),
        _span(2, 1, "weyl.compose", 1.0, 4.0),
        _span(3, 1, "weyl.compose", 3.0, 6.0),     # overlaps 2, as on a worker thread
        _span(4, 2, "core.trig_shift", 2.0, 3.0),
        _span(5, 2, tracer.HASH_SPAN, 1.0, 1.5),
        _span(6, 1, "cli.write_report", 8.0, 12.0),  # clipped to the parent
    ]
    selfs = rec.self_times()
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)   # union [1, 6] and [8, 10]
    assert selfs[2] == pytest.approx(3.0 - 1.0 - 0.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    metrics = rec.layer_metrics()
    assert metrics["weyl.compose.calls"] == (2, "count")
    assert metrics["weyl.compose.self_s"][0] == pytest.approx(1.5 + 3.0)
    assert metrics["core.trig_shift.self_s"][0] == pytest.approx(1.0)
    assert metrics["weyl.op_norm.calls"] == (0, "count")
    assert set(metrics) == set(tracer.metric_names())


def test_comparator_rejects_perturbed_row():
    rows = reference.load("axioms")["axioms"]["rows"]
    assert all(reference.compare_rows(rows, rows))
    perturbed = [list(r) for r in rows]
    perturbed[5][2] += 1e-6
    verdicts = reference.compare_rows(perturbed, rows)
    assert verdicts.count(False) == 1 and not verdicts[5]
    drifted = [[x * (1.0 + 1e-11) for x in r] for r in rows]
    assert all(reference.compare_rows(drifted, rows))
    assert reference.compare_rows(rows[:-1], rows) == [False] * len(rows)


def test_tracer_rebinds_every_import_and_restores():
    axis = Grid1D(-6.0, 6.0, 64)
    f = sample(gaussian_field(GaussianObservable(0.1, 0.0, 0.7, 0.5)), Grid2D(axis, axis))
    original = weyl.weyl_kernel
    rec = tracer.Recorder()
    rec.install()
    try:
        assert asymptotics.weyl_kernel is weyl.weyl_kernel is not original
        with rec.report("norm"):
            asymptotics.check_norm_limit(f, HbarSchedule(1.0, 0.5, 2))
    finally:
        rec.uninstall()
    assert weyl.weyl_kernel is original and asymptotics.weyl_kernel is original
    metrics = rec.layer_metrics()
    assert metrics["weyl.weyl_kernel.calls"][0] == 2
    assert metrics["weyl.op_norm.calls"][0] == 2
    assert metrics["weyl.op_norm.gflop_computed"][0] > 0
    by_id = {s[tracer.ID]: s for s in rec.spans}
    for span in rec.spans:
        if span[tracer.NAME] == "weyl.weyl_kernel":
            assert by_id[span[tracer.PARENT]][tracer.NAME] == "asymptotics.check_norm_limit"
    assert len({s[tracer.REPORT] for s in rec.spans}) == 1


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["light"])
def test_smoke_untraced(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in _benchmark_spec()["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_axioms_traced_counts():
    proc = _run("axioms", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(metrics) == sorted(m["name"] for m in _benchmark_spec()["per_layer"])
    assert metrics["weyl.weyl_kernel.calls"] == 84
    assert metrics["weyl.compose.calls"] == 42
    assert metrics["weyl.op_norm.calls"] == 28
    assert metrics["weyl.dequantize.calls"] == 14
    assert metrics["weyl.weyl_kernel.distinct_frac"] == pytest.approx(4 / 12)
    assert metrics["weyl.compose.distinct_frac"] == pytest.approx(2 / 6)


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("light", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
