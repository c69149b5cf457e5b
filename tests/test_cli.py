import csv
import json

import numpy as np
import pytest

from strictq.cli import main, parse_gaussian_spec


def run(args):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ------------------------------------------------------------------ parsing

def test_gaussian_spec_parsing():
    obs = parse_gaussian_spec("gaussian:q0=0.5,p0=-1,alpha=2,beta=0.25")
    assert (obs.q0, obs.p0, obs.alpha, obs.beta) == (0.5, -1.0, 2.0, 0.25)
    with pytest.raises(ValueError):
        parse_gaussian_spec("lorentzian:q0=0")
    with pytest.raises(ValueError):
        parse_gaussian_spec("gaussian:width=2")


def test_unknown_symbol_exits_2(tmp_path):
    out = tmp_path / "r.json"
    code = run(["axioms", "--n", "64", "--box", "6", "--hbar-count", "1",
                "--f-spec", "nosuch:a=1", "--out", str(out)])
    assert code == 2


def test_unknown_metric_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["landsman", "--metric", "hyperbolic", "--out", str(tmp_path / "r.json")])
    assert err.value.code == 2


def test_non_coprime_torus_rejected(tmp_path):
    code = run(["torus", "--n-range", "4,6", "--K", "2",
                "--out", str(tmp_path / "r.json")])
    assert code == 2


# ------------------------------------------------------------------ reports

def test_positivity_report_and_schema(tmp_path):
    out = tmp_path / "pos.json"
    code = run(["positivity", "--n", "256", "--out", str(out)])
    assert code == 0
    data = read_json(out)
    assert set(data) == {"check", "config", "columns", "rows"}
    assert data["columns"] == ["alpha", "beta", "hbar", "min_eig", "positive"]
    verdicts = [bool(row[4]) for row in data["rows"]]
    # default ratio scan flips from negative to positive at the threshold
    assert verdicts == [False, False, False, True, True, True]
    assert data["config"]["conventions"]["gaussian_prefactor_exponent"] == 0.5
    assert "version" in data["config"]


def test_positivity_empty_range(tmp_path):
    out = tmp_path / "pos.json"
    code = run(["positivity", "--alphas", "", "--betas", "", "--out", str(out)])
    assert code == 0
    assert read_json(out)["rows"] == []


def test_positivity_single_threshold_point(tmp_path):
    out = tmp_path / "pos.json"
    code = run(["positivity", "--n", "256", "--ratios", "1.0", "--out", str(out)])
    assert code == 0
    row = read_json(out)["rows"][0]
    assert row[3] >= -1e-6


def test_axioms_single_row_tables(tmp_path):
    out = tmp_path / "ax.json"
    code = run(["axioms", "--n", "192", "--box", "6", "--hbar-count", "1",
                "--out", str(out)])
    data = read_json(out)
    ids = {int(r[0]) for r in data["rows"]}
    # one row per axiom (no continuity row with a single hbar)
    assert all(sum(1 for r in data["rows"] if int(r[0]) == i) == 1 for i in ids)
    assert 3 not in ids
    assert code in (0, 1)  # single coarse hbar need not meet the 5% gate


def test_axioms_schedule_clipped_to_one_entry(tmp_path):
    # at n=64 the aliasing guard keeps only hbar=0.012 of the three entries
    out = tmp_path / "ax.json"
    code = run(["axioms", "--n", "64", "--hbar-start", "0.012", "--hbar-count", "3",
                "--out", str(out)])
    assert code in (0, 1)
    data = read_json(out)
    assert data["rows"]
    assert all(int(r[0]) != 3 for r in data["rows"])
    assert any("clipped from 3 to 1" in note for note in data["config"]["notes"])


def test_csv_mirrors_columns_rows(tmp_path):
    out = tmp_path / "t.csv"
    code = run(["torus", "--n-range", "2:5", "--format", "csv", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        lines = [l for l in fh if not l.startswith("#")]
    rows = list(csv.reader(lines))
    assert rows[0][0] == "N"
    assert len(rows) == 4  # header + N = 2, 3, 4
    assert float(rows[1][0]) == 2.0


def test_reports_bit_identical(tmp_path):
    # same RunConfig (the output path is part of the config, so reuse it)
    out = tmp_path / "a.json"
    args = ["torus", "--n-range", "2:6", "--seed", "7", "--out", str(out)]
    assert run(args) == 0
    first = out.read_bytes()
    assert run(args) == 0
    assert out.read_bytes() == first


def test_torus_defect_decay_table(tmp_path):
    out = tmp_path / "t.json"
    assert run(["torus", "--n-range", "2:17", "--out", str(out)]) == 0
    data = read_json(out)
    defects = [row[2] for row in data["rows"]]
    assert all(d2 < d1 for d1, d2 in zip(defects, defects[1:]))


def test_torus_trivial_row(tmp_path):
    out = tmp_path / "t.json"
    assert run(["torus", "--n-range", "1,2", "--out", str(out)]) == 0
    rows = read_json(out)["rows"]
    assert rows[0][0] == 1.0


def test_landsman_flat_report(tmp_path):
    out = tmp_path / "lm.json"
    code = run(["landsman", "--metric", "flat", "--n", "192", "--hbar-count", "2",
                "--out", str(out)])
    assert code == 0
    for row in read_json(out)["rows"]:
        assert row[1] <= 1e-5 * max(row[2], 1.0)


def test_landsman_exp2q_decreasing(tmp_path):
    out = tmp_path / "lm.json"
    code = run(["landsman", "--metric", "exp2q", "--n", "256", "--hbar-count", "3",
                "--out", str(out)])
    assert code == 0
    defects = [row[1] for row in read_json(out)["rows"]]
    assert all(d2 < d1 for d1, d2 in zip(defects, defects[1:]))


def test_groupoid_report(tmp_path):
    out = tmp_path / "gp.json"
    code = run(["groupoid", "--n", "192", "--hbar-count", "2", "--out", str(out)])
    assert code == 0
    data = read_json(out)
    assert len(data["rows"]) == 4  # correspondence + boundary, two hbars each
    assert data["config"]["warnings"] == []


def test_groupoid_report_names_decay_warnings(tmp_path):
    # on a box of +-4 the observable has not decayed at the p-boundary: the
    # boundary defects fail the 1e-6 gate and the warnings that explain it,
    # from the Weyl kernels and from the limit symbol, reach the report
    out = tmp_path / "gp.json"
    code = run(["groupoid", "--n", "96", "--box", "4", "--hbar-count", "2", "--out", str(out)])
    assert code == 1
    assert read_json(out)["config"]["warnings"] == [
        "p-boundary decay 2.33e-04 above tolerance (first at hbar=1)",
        "p-boundary truncation: relative edge magnitude 2.33e-04 (first at hbar=1)",
    ]


def test_star_report(tmp_path):
    out = tmp_path / "st.json"
    code = run(["star", "--n", "256", "--box", "6", "--hbar-start", "0.5",
                "--hbar-count", "3", "--out", str(out)])
    data = read_json(out)
    prods = [row[1] for row in data["rows"]]
    brs = [row[2] for row in data["rows"]]
    assert all(b < a for a, b in zip(prods, prods[1:]))
    assert all(b < a for a, b in zip(brs, brs[1:]))


def test_star_report_names_band_edge_warnings(tmp_path):
    # the final product defect fails the 5% gate; the dequantization
    # warnings that explain it reach the report
    out = tmp_path / "st.json"
    code = run(["star", "--n", "256", "--out", str(out)])
    assert code == 1
    data = read_json(out)
    last = data["rows"][-1]
    assert last[0] == 2.0 ** -6
    assert last[1] > 0.05 * data["config"]["classical_refs"]["product"]
    assert data["config"]["warnings"] == [
        "symbol content at the resolved momentum band edge |p| = 1.0472 "
        "(first at hbar=0.015625)",
        "symbol content at the resolved momentum band edge |p| = 2.0944 "
        "(first at hbar=0.03125)",
    ]


def test_threads_env_does_not_change_report(tmp_path, monkeypatch):
    out = tmp_path / "a.json"
    monkeypatch.setenv("STRICTQ_THREADS", "1")
    run(["positivity", "--n", "128", "--out", str(out)])
    first = out.read_bytes()
    monkeypatch.setenv("STRICTQ_THREADS", "3")
    run(["positivity", "--n", "128", "--out", str(out)])
    assert out.read_bytes() == first