import csv
import json

import numpy as np
import pytest

import strictq.cli
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

def test_positivity_report_and_schema(tmp_path, capsys):
    out = tmp_path / "pos.json"
    code = run(["positivity", "--n", "256", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    data = read_json(out)
    assert set(data) == {"check", "config", "columns", "rows"}
    assert data["columns"] == ["alpha", "beta", "hbar", "min_eig", "positive"]
    verdicts = [bool(row[4]) for row in data["rows"]]
    # default ratio scan flips from negative to positive at the threshold
    assert verdicts == [False, False, False, True, True, True]
    assert data["config"]["conventions"]["gaussian_prefactor_exponent"] == 0.5
    assert data["config"]["conventions"]["even_n_nyquist"] == "cosine split on both axes"
    assert "version" in data["config"]


def test_positivity_failure_names_cells(tmp_path, capsys, monkeypatch):
    # a verdict that disagrees with the threshold fails its cell, and the
    # stderr reason names that cell (the report has no warnings to name)
    monkeypatch.setattr(strictq.cli, "positivity_verdict",
                        lambda obs, hbar, grid: {"min_eigenvalue": 0.0, "positive": True})
    code = run(["positivity", "--n", "64", "--ratios", "0.5,2.0",
                "--out", str(tmp_path / "pos.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        "strictq positivity: failed threshold at alpha=0.353553, beta=0.353553\n")


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


def test_axioms_schedule_clipped_to_one_entry(tmp_path, capsys):
    # at n=64 the aliasing guard keeps only hbar=0.012 of the three entries
    out = tmp_path / "ax.json"
    code = run(["axioms", "--n", "64", "--hbar-start", "0.012", "--hbar-count", "3",
                "--out", str(out)])
    assert code in (0, 1)
    data = read_json(out)
    assert data["rows"]
    assert all(int(r[0]) != 3 for r in data["rows"])
    assert any("clipped from 3 to 1" in note for note in data["config"]["notes"])
    # a failing exit names its failed reports and the report's warnings on stderr
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("strictq axioms: failed ") and err.count("\n") == 1
        assert all(w in err for w in data["config"]["warnings"])


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


def test_torus_defect_decay_table(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run(["torus", "--n-range", "2:17", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    data = read_json(out)
    defects = [row[2] for row in data["rows"]]
    assert all(d2 < d1 for d1, d2 in zip(defects, defects[1:]))


def test_torus_failure_names_columns(tmp_path, capsys, monkeypatch):
    # a rescaled representation is no homomorphism and maps the central
    # element off the unit circle: the stderr reason names both columns
    represent = strictq.cli.rotation.represent
    monkeypatch.setattr(strictq.cli.rotation, "represent",
                        lambda a, rep: 1.001 * represent(a, rep))
    code = run(["torus", "--n-range", "2:4", "--out", str(tmp_path / "t.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        "strictq torus: failed homomorphism_err, center_err\n")


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


def test_landsman_flat_schedule_clipped_at_aliasing_floor(tmp_path, capsys):
    # hbar_min = 0.0112 on 128 points: the eighth entry 1/128 is dropped with
    # the note of the axiom sweep instead of exiting 2 on an unresolved kernel
    out = tmp_path / "lm.json"
    assert run(["landsman", "--metric", "flat", "--n", "128", "--hbar-count", "8",
                "--out", str(out)]) == 0
    report = read_json(out)
    assert [row[0] for row in report["rows"]] == [0.5 ** k for k in range(7)]
    assert report["config"]["notes"] == [
        "schedule clipped from 8 to 7 entries by the aliasing guard (hbar_min = 0.0111906)"]
    # on 24 points two entries remain, too coarse for the gap predicate; the
    # Weyl kernels' band-edge warnings that explain it reach the stderr reason
    assert run(["landsman", "--metric", "flat", "--n", "24", "--out", str(out)]) == 1
    warnings = [
        "kernel content 3.40e-02 at the resolved-band edge |q - q'| = 3.14159; refine the "
        "p-grid or use larger hbar (first at hbar=1)",
        "kernel content 2.02e-01 at the resolved-band edge |q - q'| = 1.5708; refine the "
        "p-grid or use larger hbar (first at hbar=0.5)",
    ]
    assert read_json(out)["config"]["warnings"] == warnings
    assert capsys.readouterr().err == (
        f"strictq landsman: failed flat sup_gap_vs_weyl; warnings: {'; '.join(warnings)}\n")
    assert len(read_json(out)["rows"]) == 2


def test_landsman_exp2q_failure_reason(tmp_path, capsys):
    # on 24 points the exp2q Dirac defects grow along the schedule; the
    # stderr reason names the check (the report has no warnings to name)
    out = tmp_path / "lm.json"
    assert run(["landsman", "--metric", "exp2q", "--n", "24", "--out", str(out)]) == 1
    defects = [row[1] for row in read_json(out)["rows"]]
    assert defects[1] > defects[0]
    assert read_json(out)["config"]["warnings"] == []
    assert capsys.readouterr().err == "strictq landsman: failed exp2q dirac_defect; warnings: none\n"


def test_landsman_report_names_p_truncation(tmp_path, capsys):
    # on a box of +-5 the flat observable is truncated at the p-boundary: the
    # Weyl kernel's warnings reach the report, tagged with their first hbar
    out = tmp_path / "lm.json"
    assert run(["landsman", "--metric", "flat", "--n", "64", "--box", "5", "--hbar-start",
                "0.015", "--hbar-count", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert read_json(out)["config"]["warnings"] == [
        "p-boundary decay 1.60e-06 above tolerance (first at hbar=0.015)",
        "kernel content 4.15e-08 at the resolved-band edge |q - q'| = 0.301593; refine the "
        "p-grid or use larger hbar (first at hbar=0.015)",
    ]


def test_landsman_exp2q_decreasing(tmp_path):
    out = tmp_path / "lm.json"
    code = run(["landsman", "--metric", "exp2q", "--n", "256", "--hbar-count", "3",
                "--out", str(out)])
    assert code == 0
    defects = [row[1] for row in read_json(out)["rows"]]
    assert all(d2 < d1 for d1, d2 in zip(defects, defects[1:]))


def test_landsman_schedule_options(tmp_path):
    # the circle and exp2q schedules start at min(--hbar-start, a fraction of
    # the admissible hbar) and step by --hbar-ratio
    for metric in ("circle", "exp2q"):
        out = tmp_path / f"{metric}.json"
        run(["landsman", "--metric", metric, "--n", "128", "--hbar-ratio", "0.7",
             "--hbar-start", "0.05", "--out", str(out)])
        hbars = np.array([row[0] for row in read_json(out)["rows"]])
        assert hbars[0] == 0.05
        assert read_json(out)["config"]["warnings"] == []
        assert np.allclose(hbars[1:] / hbars[:-1], 0.7, rtol=1e-14, atol=0.0)


def test_groupoid_report(tmp_path, capsys):
    out = tmp_path / "gp.json"
    code = run(["groupoid", "--n", "192", "--hbar-count", "2", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    data = read_json(out)
    assert len(data["rows"]) == 4  # correspondence + boundary, two hbars each
    assert data["config"]["warnings"] == []


def test_groupoid_report_names_decay_warnings(tmp_path, capsys):
    # on a box of +-4 the observable has not decayed at the p-boundary, and
    # its groupoid element has not decayed where the shear wraps the x-box:
    # both sections fail their gates and the warnings that explain it, from
    # the Weyl kernels, the groupoid elements and the limit symbol, reach the
    # report and the stderr reason
    out = tmp_path / "gp.json"
    code = run(["groupoid", "--n", "96", "--box", "4", "--hbar-count", "2", "--out", str(out)])
    assert code == 1
    warnings = [
        "p-boundary decay 2.33e-04 above tolerance (first at hbar=1)",
        "p-boundary truncation: relative edge magnitude 2.33e-04 (first at hbar=1)",
        "sheared content 3.50e-03 where the shift wraps the x-box (first at hbar=1)",
        "sheared content 9.86e-04 where the shift wraps the x-box (first at hbar=0.5)",
    ]
    assert read_json(out)["config"]["warnings"] == warnings
    assert capsys.readouterr().err == (
        "strictq groupoid: failed wm_correspondence, tangent_boundary; "
        f"warnings: {'; '.join(warnings)}\n")


def test_star_report(tmp_path):
    out = tmp_path / "st.json"
    code = run(["star", "--n", "256", "--box", "6", "--hbar-start", "0.5",
                "--hbar-count", "3", "--out", str(out)])
    data = read_json(out)
    prods = [row[1] for row in data["rows"]]
    brs = [row[2] for row in data["rows"]]
    assert all(b < a for a, b in zip(prods, prods[1:]))
    assert all(b < a for a, b in zip(brs, brs[1:]))


def test_star_report_names_band_edge_warnings(tmp_path, capsys):
    # the final product defect fails the 5% gate; the dequantization
    # warnings that explain it reach the report and the stderr reason
    out = tmp_path / "st.json"
    code = run(["star", "--n", "256", "--out", str(out)])
    assert code == 1
    data = read_json(out)
    last = data["rows"][-1]
    assert last[0] == 2.0 ** -6
    assert last[1] > 0.05 * data["config"]["classical_refs"]["product"]
    warnings = [
        "symbol content at the resolved momentum band edge |p| = 1.0472 "
        "(first at hbar=0.015625)",
        "symbol content at the resolved momentum band edge |p| = 2.0944 "
        "(first at hbar=0.03125)",
    ]
    assert data["config"]["warnings"] == warnings
    err = capsys.readouterr().err
    assert err == f"strictq star: failed product, bracket; warnings: {'; '.join(warnings)}\n"
