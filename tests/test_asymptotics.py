import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from strictq import asymptotics, weyl
from strictq.asymptotics import (
    AxiomReport,
    axiom_sweep,
    check_dirac,
    check_norm_continuity,
    check_norm_limit,
    check_star_limits,
    check_vonneumann,
    jordan,
    quantum_bracket,
)
from strictq.cli import AXIOM_LABELS
from strictq.core import Grid1D, Grid2D, HbarSchedule, sample
from strictq.gaussian import GaussianObservable
from strictq.symbols import gaussian_field, poisson_field
from strictq.weyl import OperatorKernel, op_norm, star_product, weyl_kernel

from conftest import coordinate_field, random_gaussians, sampled_gaussian, window_field

AXIS = Grid1D(-6.0, 6.0, 384)
GRID = Grid2D(AXIS, AXIS)
SCHED = HbarSchedule(start=1.0, ratio=0.5, count=4)

F_OBS = GaussianObservable(q0=0.4, p0=-0.2, alpha=0.7, beta=0.5)
G_OBS = GaussianObservable(q0=-0.3, p0=0.3, alpha=0.6, beta=0.55)


def make(obs, grid=GRID):
    return sampled_gaussian(obs, grid)


# -------------------------------------------------- algebraic building blocks

def test_jordan_symmetric_and_self():
    f = make(F_OBS)
    g = make(G_OBS)
    ka = weyl_kernel(f, 0.5, AXIS)
    kb = weyl_kernel(g, 0.5, AXIS)
    from strictq.weyl import compose

    self_j = jordan(ka, ka)
    assert np.max(np.abs(self_j.matrix - compose(ka, ka).matrix)) < 1e-12
    assert np.max(np.abs(jordan(ka, kb).matrix - jordan(kb, ka).matrix)) < 1e-12


def test_jordan_commuting_diagonal_kernels():
    # diagonal (multiplication-type) kernels commute, so the Jordan product
    # collapses to plain composition
    q = AXIS.points
    from strictq.weyl import OperatorKernel, compose

    a = OperatorKernel(grid=AXIS, matrix=np.diag(np.exp(-q**2)) / AXIS.delta, hbar=0.5)
    b = OperatorKernel(grid=AXIS, matrix=np.diag(1.0 / (1 + q**2)) / AXIS.delta, hbar=0.5)
    assert np.max(np.abs(jordan(a, b).matrix - compose(a, b).matrix)) < 1e-10


def test_quantum_bracket_antisymmetric_and_zero():
    f = make(F_OBS)
    g = make(G_OBS)
    ka = weyl_kernel(f, 0.5, AXIS)
    kb = weyl_kernel(g, 0.5, AXIS)
    self_b = quantum_bracket(ka, ka, 0.5)
    assert np.max(np.abs(self_b.matrix)) < 1e-12
    anti = quantum_bracket(ka, kb, 0.5).matrix + quantum_bracket(kb, ka, 0.5).matrix
    assert np.max(np.abs(anti)) < 1e-12


def test_product_decomposition_identity():
    # AB = jordan + (i hbar / 2) bracket, exactly at rounding level
    hbar = 0.5
    for seed in (21, 22):
        obs = random_gaussians(seed, 2)
        ka = weyl_kernel(make(obs[0]), hbar, AXIS)
        kb = weyl_kernel(make(obs[1]), hbar, AXIS)
        from strictq.weyl import compose

        ab = compose(ka, kb).matrix
        rebuilt = jordan(ka, kb).matrix + 0.5j * hbar * quantum_bracket(ka, kb, hbar).matrix
        assert np.max(np.abs(ab - rebuilt)) < 1e-12 * max(1.0, np.max(np.abs(ab)))


# ------------------------------------------------------------------- checks

@pytest.fixture(scope="module")
def sweep():
    """``axiom_sweep`` of two observables on a square n-point grid, run once per input."""
    cache = {}

    def run(f_obs, g_obs, n, schedule):
        key = (f_obs, g_obs, n, schedule)
        if key not in cache:
            axis = Grid1D(-6.0, 6.0, n)
            grid = Grid2D(axis, axis)
            cache[key] = axiom_sweep(make(f_obs, grid), make(g_obs, grid), schedule)
        return cache[key]

    return run


SCHED3 = HbarSchedule(1.0, 0.5, 3)


def test_dirac_self_vanishes(sweep):
    dirac = sweep(F_OBS, F_OBS, AXIS.n, SCHED3)[0]
    assert np.all(dirac.defects <= 1e-10)


def test_dirac_decreasing_two_resolutions(sweep):
    for n in (384, 512):
        rep = sweep(F_OBS, G_OBS, n, SCHED)[0]
        assert np.all(np.diff(rep.defects) < 0)
        assert rep.defects[-1] < rep.defects[0] / 4.0


def test_vonneumann_nonzero_for_equal_args_and_decreasing(sweep):
    rep_self = sweep(F_OBS, F_OBS, AXIS.n, SCHED3)[1]
    assert rep_self.defects[0] > 1e-3  # f*f != f^2 pointwise at hbar > 0
    rep = sweep(F_OBS, G_OBS, AXIS.n, SCHED)[1]
    assert np.all(np.diff(rep.defects) < 0)
    assert rep.defects[-1] < rep.defects[0] / 4.0


def test_norm_limit_reference_and_trend():
    # center on a grid point so the grid sup equals the amplitude 2
    q0 = float(AXIS.points[AXIS.n // 2])
    f = make(GaussianObservable(q0=q0, p0=q0, alpha=1.0, beta=1.0))
    rep = check_norm_limit(f, SCHED)
    assert rep.classical_ref == pytest.approx(2.0, abs=1e-12)
    assert np.all(np.diff(rep.defects) < 0)


def test_norm_limit_zero_function():
    zero = sample(gaussian_field(F_OBS) * 0.0, GRID)
    rep = check_norm_limit(zero, HbarSchedule(1.0, 0.5, 3))
    assert np.all(rep.defects == 0.0)


def test_norm_continuity_gaps_shrink():
    f = make(F_OBS)
    rep = check_norm_continuity(f, SCHED)
    assert len(rep.hbars) == SCHED.count - 1
    assert np.all(np.diff(rep.defects) < 0)


def test_norm_continuity_window_symbol_near_sup():
    w = sample(window_field(half_width=3.0, edge=0.5), GRID)
    sched = HbarSchedule(0.5, 0.5, 3)
    rep = check_norm_continuity(w, sched)
    # norms stay near sup throughout, so the gaps are small
    assert np.all(rep.defects < 0.05 * rep.classical_ref)


def test_star_limits_self_kills_bracket():
    f = make(F_OBS)
    prod, br = check_star_limits(f, f, HbarSchedule(1.0, 0.5, 3))
    assert np.all(br.defects <= 1e-8)
    assert prod.defects[0] > 1e-3


def test_star_limits_decreasing():
    prod, br = check_star_limits(make(F_OBS), make(G_OBS), SCHED)
    assert np.all(np.diff(prod.defects) < 0)
    assert np.all(np.diff(br.defects) < 0)


def test_star_bracket_windowed_coordinates():
    # {q, p} = 1; the rescaled star commutator of windowed coordinates must
    # hit 1 in the interior (linear symbols have no higher Moyal corrections)
    axis = Grid1D(-16.0, 16.0, 512)
    grid = Grid2D(axis, axis)
    fq = sample(coordinate_field("q"), grid)
    fp = sample(coordinate_field("p"), grid)
    hbar = 0.5
    from strictq.weyl import star_product

    qp = star_product(fq, fp, hbar)
    pq = star_product(fp, fq, hbar)
    comm = (qp.values - pq.values) / (1j * hbar)
    qq, pp = grid.meshes()
    interior = (np.abs(qq) < 1.5) & (np.abs(pp) < 1.5)
    assert np.max(np.abs(comm[interior] - 1.0)) < 1e-5


# ------------------------------------------------------------- shared pass

def _count_calls(monkeypatch):
    counts = {}
    for name in ("weyl_kernel", "compose", "op_norm", "dequantize"):
        original = getattr(asymptotics, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(asymptotics, name, counted)
    return counts


def test_sweep_builds_each_kernel_and_product_once(monkeypatch):
    axis = Grid1D(-6.0, 6.0, 128)
    grid = Grid2D(axis, axis)
    f, g = make(F_OBS, grid), make(G_OBS, grid)
    sched = HbarSchedule(1.0, 0.5, 3)
    counts = _count_calls(monkeypatch)
    reports = axiom_sweep(f, g, sched)
    per_hbar = {name: c / sched.count for name, c in counts.items()}
    # Q(g)Q(f) is the adjoint of Q(f)Q(g) and g * f = conj(f * g): one product
    # and one dequantization per hbar
    assert per_hbar == {"weyl_kernel": 4, "compose": 1, "op_norm": 3, "dequantize": 1}
    assert [r.axiom for r in reports] == [
        "dirac", "vonneumann", "norm_limit", "norm_continuity", "star_product", "star_bracket"]

    counts.clear()
    check_star_limits(f, g, sched)
    per_hbar = {name: c / sched.count for name, c in counts.items()}
    assert per_hbar == {"weyl_kernel": 2, "compose": 1, "dequantize": 1}


def test_sweep_matches_independent_checks():
    # oracle: every defect rebuilt from the public kernel calculus, one
    # axiom at a time, as each check did before the shared pass existed,
    # with g * f dequantized from its own Q(g)Q(f)
    axis = Grid1D(-6.0, 6.0, 192)
    grid = Grid2D(axis, axis)
    f, g = make(F_OBS, grid), make(G_OBS, grid)
    sched = HbarSchedule(1.0, 0.5, 4)
    product = sample(f.symbol * g.symbol, grid)
    bracket = sample(poisson_field(f.symbol, g.symbol), grid)
    expected = {k: [] for k in ("dirac", "vonneumann", "norms", "prod", "br", "br_gap")}
    for hbar in sched.values:
        ka, kb = weyl_kernel(f, hbar, axis), weyl_kernel(g, hbar, axis)
        qb = quantum_bracket(ka, kb, hbar)
        jd = jordan(ka, kb)
        for key, exact, approx in (("dirac", bracket, qb), ("vonneumann", product, jd)):
            diff = weyl_kernel(exact, hbar, axis).matrix - approx.matrix
            expected[key].append(op_norm(OperatorKernel(grid=axis, matrix=diff, hbar=hbar)))
        expected["norms"].append(op_norm(ka))
        fg, gf = star_product(f, g, hbar), star_product(g, f, hbar)
        expected["prod"].append(np.max(np.abs(fg.values - product.values)))
        comm = (fg.values - gf.values) / (1j * hbar)
        expected["br"].append(np.max(np.abs(comm - bracket.values)))
        # the sweep takes g * f = conj(f * g): its commutator differs from the
        # oracle's by |g * f - conj(f * g)| / hbar, plus rounding of both sums
        eps = np.finfo(float).eps
        expected["br_gap"].append(
            np.max(np.abs(gf.values - fg.values.conj())) / hbar
            + 4 * eps * (np.max(np.abs(fg.values)) / hbar + bracket.sup_norm()))
    expected["norm"] = [abs(x - f.sup_norm()) for x in expected["norms"]]
    expected["cont"] = np.abs(np.diff(expected["norms"]))

    dirac, vonn, norm, cont, star_p, star_b = axiom_sweep(f, g, sched)
    for rep, key in ((dirac, "dirac"), (vonn, "vonneumann"), (norm, "norm"),
                     (cont, "cont"), (star_p, "prod")):
        np.testing.assert_allclose(rep.defects, expected[key], rtol=1e-14, atol=0,
                                   err_msg=key)
    assert np.all(np.abs(star_b.defects - expected["br"]) <= expected["br_gap"])
    assert dirac.classical_ref == bracket.sup_norm()
    assert vonn.classical_ref == product.sup_norm()


def test_sweep_same_with_complex_samples():
    # real observables sample to float64; complex128 copies of the same
    # samples give the same reports bit for bit
    axis = Grid1D(-6.0, 6.0, 96)
    grid = Grid2D(axis, axis)
    f, g = make(F_OBS, grid), make(G_OBS, grid)
    assert f.values.dtype == g.values.dtype == np.float64
    wide = [replace(x, values=x.values.astype(complex)) for x in (f, g)]
    sched = HbarSchedule(1.0, 0.5, 3)
    for rep, again in zip(axiom_sweep(f, g, sched), axiom_sweep(*wide, sched), strict=True):
        assert np.array_equal(rep.hbars, again.hbars)
        assert np.array_equal(rep.defects, again.defects)
        assert (rep.axiom, rep.classical_ref, rep.notes, rep.warnings) == (
            again.axiom, again.classical_ref, again.notes, again.warnings)


def test_sweep_traced_memory(monkeypatch):
    # at n = 512 a two-hbar pass peaks below 9.5 n x n complex arrays (8.8
    # measured); complex samples, a scatter index in the chart or BA kept
    # beside each defect take it past the bound.  The lane workspaces grow
    # with the lane count, so it is fixed at two
    monkeypatch.setattr(weyl, "_LANES", 2)
    n = 512
    axis = Grid1D(-6.0, 6.0, n)
    grid = Grid2D(axis, axis)
    tracemalloc.start()
    try:
        f, g = make(F_OBS, grid), make(G_OBS, grid)
        axiom_sweep(f, g, HbarSchedule(1.0, 0.5, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.5 * 16 * n * n


def test_sweep_labels_are_the_cli_axiom_labels():
    # each report is named by the one label that keys its axiom_id in the
    # CLI table, in the order of the ids
    axis = Grid1D(-6.0, 6.0, 64)
    grid = Grid2D(axis, axis)
    reports = axiom_sweep(make(F_OBS, grid), make(G_OBS, grid), HbarSchedule(1.0, 0.5, 2))
    assert [r.axiom for r in reports] == list(AXIOM_LABELS.values())


@pytest.mark.parametrize("which", ["f", "g"])
def test_sweep_refuses_complex_observable(which):
    # Q(c f) = c Q(f) is not Hermitian for complex c, so Q(g)Q(f) is not
    # (Q(f)Q(g))* and g * f is not conj(f * g)
    axis = Grid1D(-6.0, 6.0, 64)
    grid = Grid2D(axis, axis)
    obs = {"f": make(F_OBS, grid), "g": make(G_OBS, grid)}
    obs[which] = sample(gaussian_field(F_OBS) * (1.0 + 0.5j), grid)
    sched = HbarSchedule(1.0, 0.5, 2)
    for check in (axiom_sweep, check_star_limits):
        with pytest.raises(ValueError, match=rf"Q\({which}\) at hbar=1 is not exactly Hermitian"):
            check(obs["f"], obs["g"], sched)


def test_sweep_omits_continuity_on_single_clipped_hbar():
    axis = Grid1D(-6.0, 6.0, 64)
    grid = Grid2D(axis, axis)
    # 0.012 sits just above the aliasing floor; the smaller entries are clipped
    reports = axiom_sweep(make(F_OBS, grid), make(G_OBS, grid), HbarSchedule(0.012, 0.5, 3))
    assert [r.axiom for r in reports] == [
        "dirac", "vonneumann", "norm_limit", "star_product", "star_bracket"]
    assert all(len(r.hbars) == 1 for r in reports)
    assert any("clipped from 3 to 1" in note for note in reports[0].notes)
    with pytest.raises(ValueError):
        check_norm_continuity(make(F_OBS, grid), HbarSchedule(0.012, 0.5, 3))


def test_star_warnings_tagged_with_first_hbar():
    # the dequantized band |p| <= pi hbar / dq shrinks with hbar until the
    # symbols' momentum content reaches its edge
    axis = Grid1D(-6.0, 6.0, 128)
    grid = Grid2D(axis, axis)
    prod, br = check_star_limits(make(F_OBS, grid), make(G_OBS, grid),
                                 HbarSchedule(0.125, 0.5, 3))
    assert prod.warnings == br.warnings
    assert sorted(prod.warnings) == [
        "symbol content at the resolved momentum band edge |p| = 1.0472 "
        "(first at hbar=0.03125)",
        "symbol content at the resolved momentum band edge |p| = 2.0944 "
        "(first at hbar=0.0625)",
    ]


def test_repeated_warning_kept_once_with_first_hbar():
    # a wide momentum profile has not decayed at the p-boundary, so every
    # kernel raises the same warning, kept once (and its own q-box edge content)
    wide = make(GaussianObservable(q0=0.0, p0=0.0, alpha=0.7, beta=8.0))
    rep = check_norm_limit(wide, HbarSchedule(0.5, 0.5, 3))
    assert rep.warnings == (
        "p-boundary decay 1.07e-01 above tolerance (first at hbar=0.5)",
        *(f"kernel content {r} at the edge of the q-box [-6, 6); widen the box "
          f"(first at hbar={h})" for r, h in (("1.32e-03", 0.5), ("7.10e-04", 0.25),
                                              ("4.80e-04", 0.125))),
    )


# -------------------------------------------------------------- report type

def test_report_validation():
    with pytest.raises(ValueError):
        AxiomReport(axiom="dirac", hbars=np.array([1.0, 1.0]),
                    defects=np.array([0.1, 0.1]), classical_ref=1.0)
    with pytest.raises(ValueError):
        AxiomReport(axiom="dirac", hbars=np.array([1.0, 0.5]),
                    defects=np.array([0.1]), classical_ref=1.0)


def test_reports_deterministic():
    # each view reruns the whole pass and must reproduce its report bit for bit
    axis = Grid1D(-6.0, 6.0, 192)
    grid = Grid2D(axis, axis)
    f, g = make(F_OBS, grid), make(G_OBS, grid)
    reports = axiom_sweep(f, g, SCHED3)
    for view, rep in ((check_dirac, reports[0]), (check_vonneumann, reports[1])):
        again = view(f, g, SCHED3)
        assert np.array_equal(again.hbars, rep.hbars)
        assert np.array_equal(again.defects, rep.defects)
        assert (again.axiom, again.classical_ref, again.notes, again.warnings) == (
            rep.axiom, rep.classical_ref, rep.notes, rep.warnings)


def test_schedule_clipping_note():
    f = make(F_OBS)
    tiny = HbarSchedule(1.0, 0.25, 12)  # reaches below the aliasing floor
    rep = check_norm_limit(f, tiny)
    assert len(rep.hbars) < tiny.count
    assert any("clipped" in note for note in rep.notes)
    assert any("hbar=0" in note for note in rep.notes)
