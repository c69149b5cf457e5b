import argparse
import csv
import json
import warnings

import numpy as np
import pytest

import strictq.cli
from strictq.cli import build_parser, main, parse_gaussian_spec


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


# ------------------------------------------------------------------ options

# one tiny run per subcommand (landsman once per metric) that reads options
NO_OP_RUNS = {
    "axioms": [["--n", "64", "--hbar-count", "1"]],
    "star": [["--n", "64", "--hbar-count", "1"]],
    "positivity": [["--n", "64", "--ratios", "1.0"]],
    "torus": [["--n-range", "2:3"]],
    "landsman": [["--metric", metric, "--n", "64"] for metric in ("flat", "circle", "exp2q")],
    "groupoid": [["--n", "96", "--box", "4", "--hbar-count", "2"]],
}


def subcommand_options():
    """``{subcommand: {option string: dest}}`` over ``build_parser()``."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {s: a.dest for a in p._actions if a.dest != "help" for s in a.option_strings}
            for name, p in sub.choices.items()}


def test_subcommands_cover_no_op_runs():
    assert set(subcommand_options()) == set(NO_OP_RUNS)


@pytest.mark.parametrize("command", sorted(NO_OP_RUNS))
def test_no_option_is_a_no_op(command, tmp_path, capsys):
    # every option a subcommand declares is read by its cmd_* (the report
    # config copies the parsed options without reading them one by one) ...
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            if not name.startswith("_"):
                reads.add(name)
            return super().__getattribute__(name)

    options = subcommand_options()
    for argv in NO_OP_RUNS[command]:
        args = build_parser().parse_args([command, *argv, "--out", str(tmp_path / "r.json")])
        args.func(Recorder(**vars(args)))
    assert set(options[command].values()) - reads == set()
    # ... and every option of another subcommand is refused, prefixes included
    foreign = set().union(*options.values()) - set(options[command])
    for option in sorted(foreign):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args([command, *NO_OP_RUNS[command][0], option, "1"])
        assert err.value.code == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


@pytest.mark.parametrize("option,value,reason", [
    ("--n", "1", "need --n >= 2, got 1"),
    ("--box", "0", "need --box finite and > 0, got 0.0"),
    ("--hbar-start", "0", "need --hbar-start finite and > 0, got 0.0"),
    # this case keeps the id it had when the reason was HbarSchedule's own
    pytest.param("--hbar-ratio", "1.5", "need --hbar-ratio in (0, 1), got 1.5",
                 id="--hbar-ratio-1.5-need ratio in (0, 1), got 1.5"),
    ("--hbar-count", "0", "need --hbar-count >= 1, got 0"),
])
def test_bad_grid_or_schedule_exits_2(tmp_path, capsys, option, value, reason):
    # every subcommand that declares the option refuses it, naming it
    out = tmp_path / "r.json"
    commands = [c for c, options in subcommand_options().items() if option in options]
    assert "axioms" in commands
    for command in commands:
        assert run([command, *NO_OP_RUNS[command][0], option, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"strictq: {reason}\n", command
        assert not out.exists()


@pytest.mark.parametrize("spec,reason", [
    ("gaussian:alpha", "gaussian parameter 'alpha' has no value"),
    ("gaussian:q0=nan", "need finite q0, p0, alpha, beta, got nan, 0.0, 1.0, 1.0"),
    ("gaussian:alpha=inf", "need finite q0, p0, alpha, beta, got 0.0, 0.0, inf, 1.0"),
    ("gaussian:q0=0.4,q0=1", "gaussian parameter 'q0' given twice"),
])
def test_bad_spec_exits_2(tmp_path, capsys, spec, reason):
    # every subcommand that takes observable specs refuses the spec, naming
    # the option
    out = tmp_path / "r.json"
    for option in ("--f-spec", "--g-spec"):
        commands = [c for c, options in subcommand_options().items() if option in options]
        assert commands == ["axioms", "star"]
        for command in commands:
            assert run([command, *NO_OP_RUNS[command][0], option, spec, "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"strictq: {option} {spec!r}: {reason}\n", command
            assert not out.exists()


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


def test_positivity_empty_range(tmp_path, capsys):
    # an empty grid is refused, naming the option, and no report is written
    out = tmp_path / "pos.json"
    for cells, option, text in ((["--ratios="], "--ratios", ""),
                                (["--alphas", "", "--betas", ""], "--alphas", ""),
                                (["--alphas", "1", "--betas", ","], "--betas", ",")):
        assert run(["positivity", *cells, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"strictq: {option} {text!r} holds no value\n"
        assert not out.exists()


@pytest.mark.parametrize("given", ["--alphas", "--betas"])
def test_positivity_one_sided_grid_exits_2(tmp_path, capsys, given):
    out = tmp_path / "pos.json"
    assert run(["positivity", given, "0.5,1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "strictq: give both --alphas and --betas, or neither\n"
    assert not out.exists()


@pytest.mark.parametrize("hbar", ["0", "-1", "nan"])
def test_positivity_nonpositive_hbar_exits_2(tmp_path, capsys, hbar):
    # --hbar is checked before the --ratios widths are derived from it
    out = tmp_path / "pos.json"
    for cells in (["--alphas", "1", "--betas", "1"], ["--ratios", "1.0"]):
        assert run(["positivity", f"--hbar={hbar}", *cells, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"strictq: need --hbar finite and > 0, got {float(hbar)}\n")
        assert not out.exists()


@pytest.mark.parametrize("ratio", ["-1", "0", "nan"])
def test_positivity_nonpositive_ratio_exits_2(tmp_path, capsys, ratio):
    out = tmp_path / "pos.json"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert run(["positivity", f"--ratios={ratio}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"strictq: need every --ratios value finite and > 0, got {float(ratio)}\n")
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("hbar", ["0.001", "1e-160", "1e-200"])
def test_positivity_unresolved_hbar_exits_2(tmp_path, capsys, hbar):
    # alpha = beta = sqrt(r) hbar/2 shrink with hbar until the grid cannot
    # resolve the packet; the run is refused, naming --hbar, with no traceback
    out = tmp_path / "pos.json"
    assert run(["positivity", f"--hbar={hbar}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"strictq: --hbar {float(hbar):g} at alpha=")
    assert "unresolved: the packet of width sqrt(2 alpha)" in err
    assert not out.exists()


def test_positivity_huge_hbar_raises_no_overflow(tmp_path, capsys):
    # (hbar/2)^2 overflowed into an uncaught OverflowError at 1e300; there, and
    # already at 100, the packet of width sqrt(2 alpha), alpha = sqrt(r) hbar/2,
    # outgrows the +-16 box, which is refused, naming --box
    for hbar in ("100", "1e300"):
        assert run(["positivity", "--hbar", hbar, "--out", str(tmp_path / "pos.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("strictq: --box 16 at alpha=") and "truncates the packet" in err


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
    # same options (the output path is part of the config, so reuse it)
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


@pytest.mark.parametrize("n_range", ["5:2", ","])
def test_torus_empty_n_range_exits_2(tmp_path, capsys, n_range):
    out = tmp_path / "t.json"
    assert run(["torus", "--n-range", n_range, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"strictq: --n-range {n_range!r} holds no N\n"
    assert not out.exists()


def test_torus_twist_reaches_the_dirac_defect(tmp_path):
    # --K quantizes the defect columns too: closed form 2(pi/N - sin(pi K/N))
    # for m = k = 1, checked against the direct matrices
    out = tmp_path / "t.json"
    assert run(["torus", "--K", "3", "--n-range", "4,5,7,8", "--out", str(out)]) == 0
    data = read_json(out)
    col = {name: i for i, name in enumerate(data["columns"])}
    assert [row[col["N"]] for row in data["rows"]] == [4.0, 5.0, 7.0, 8.0]
    for row in data["rows"]:
        N = row[col["N"]]
        closed = 2.0 * abs(np.pi / N - np.sin(3 * np.pi / N))
        assert row[col["K"]] == 3.0
        assert row[col["defect_abs"]] == pytest.approx(closed, rel=1e-13)
        assert row[col["defect_times_N3"]] == pytest.approx(closed * N**3, rel=1e-13)
        assert row[col["direct_vs_closed"]] <= 1e-12


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


def test_landsman_flat_refuses_no_p_decay(tmp_path, capsys):
    # on a box of +-3 the fiber transform that gives the fiber grid refuses
    assert run(["landsman", "--metric", "flat", "--box", "3", "--n", "128",
                "--out", str(tmp_path / "lm.json")]) == 2
    assert capsys.readouterr().err == ("strictq: no decay at the p-boundary (relative edge "
                                       "magnitude 1.14e-02); the fiber transform would wrap\n")


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
        "kernel content 1.44e-05 at the edge of the q-box [-5, 5); widen the box "
        "(first at hbar=0.015)",
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


def test_groupoid_builds_one_weyl_kernel_per_hbar(tmp_path, monkeypatch):
    # the correspondence and the boundary sections share each hbar's Q(f)
    built = []
    weyl_kernel = strictq.groupoid.weyl_kernel

    def counting(f, hbar, qgrid):
        built.append(hbar)
        return weyl_kernel(f, hbar, qgrid)

    monkeypatch.setattr(strictq.groupoid, "weyl_kernel", counting)
    out = tmp_path / "gp.json"
    assert run(["groupoid", "--n", "192", "--hbar-count", "3", "--out", str(out)]) == 0
    assert built == [1.0, 0.5, 0.25]
    assert [row[0] for row in read_json(out)["rows"]] == built * 2


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
        "kernel content 1.43e-03 at the edge of the q-box [-4, 4); widen the box "
        "(first at hbar=0.5)",
        "kernel content 4.60e-03 at the edge of the q-box [-4, 4); widen the box "
        "(first at hbar=1)",
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
    # warnings that explain it reach the report and the stderr reason, as
    # does the q-box edge content of Q(f) and Q(g) at hbar = 1
    out = tmp_path / "st.json"
    code = run(["star", "--n", "256", "--out", str(out)])
    assert code == 1
    data = read_json(out)
    last = data["rows"][-1]
    assert last[0] == 2.0 ** -6
    assert last[1] > 0.05 * data["config"]["classical_refs"]["product"]
    warnings = [
        "kernel content 2.32e-07 at the edge of the q-box [-6, 6); widen the box "
        "(first at hbar=1)",
        "kernel content 2.36e-06 at the edge of the q-box [-6, 6); widen the box "
        "(first at hbar=1)",
        "symbol content at the resolved momentum band edge |p| = 1.0472 "
        "(first at hbar=0.015625)",
        "symbol content at the resolved momentum band edge |p| = 2.0944 "
        "(first at hbar=0.03125)",
    ]
    assert data["config"]["warnings"] == warnings
    err = capsys.readouterr().err
    assert err == f"strictq star: failed product, bracket; warnings: {'; '.join(warnings)}\n"
