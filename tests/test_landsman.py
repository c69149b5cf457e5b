import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline
from scipy.linalg import eigh

import strictq.landsman as landsman_mod
from strictq.core import Grid1D, Grid2D, GridError, HbarSchedule, sample
from strictq.core import fourier_fiber as flat_fiber
from strictq.gaussian import GaussianObservable
from strictq.landsman import (
    AdmissibilityError,
    DomainError,
    FiberSymbol,
    Metric1D,
    circle_hermiticity,
    exp2q_pair,
    exp_map,
    fiber_fourier,
    gaussian_fiber_symbol,
    hbar_admissible,
    landsman_kernel,
    metric_circle,
    metric_exp2q,
    metric_flat,
    metric_numeric,
    phi_hbar,
    phi_hbar_inverse,
)
from strictq.symbols import poisson_field
from strictq.weyl import OperatorKernel, WaveFunction, apply, compose, op_norm

from conftest import sampled_gaussian

FLAT = metric_flat()
EXP2Q = metric_exp2q()


# ------------------------------------------------------------ fiber symbols

def test_fiber_fourier_flat_reduces_to_core():
    axis = Grid1D(-12.0, 12.0, 256)
    grid = Grid2D(axis, axis)
    f = sampled_gaussian(GaussianObservable(0.2, -0.3, 1.0, 0.8), grid)
    fs = fiber_fourier(f, FLAT)
    assert np.max(np.abs(fs.values - flat_fiber(f).values)) == 0.0


def test_fiber_fourier_gaussian_analytic():
    axis = Grid1D(-12.0, 12.0, 256)
    grid = Grid2D(axis, axis)
    g = GaussianObservable(0.2, -0.3, 1.0, 0.8)
    f = sampled_gaussian(g, grid)
    fs = fiber_fourier(f, FLAT)
    oracle = gaussian_fiber_symbol(g, FLAT, fs.base, fs.fiber)
    assert np.max(np.abs(fs.values - oracle.values)) < 1e-6


def test_fiber_fourier_metric_scaling():
    axis = Grid1D(-12.0, 12.0, 256)
    grid = Grid2D(axis, axis)
    f = sampled_gaussian(GaussianObservable(), grid)
    four_g = Metric1D(g=lambda q: 4.0 * np.ones_like(np.asarray(q, dtype=float)),
                      domain="line", s=lambda q: 2.0 * np.asarray(q),
                      s_inv=lambda s: np.asarray(s) / 2.0)
    a = fiber_fourier(f, FLAT)
    b = fiber_fourier(f, four_g)
    assert np.max(np.abs(b.values - a.values / 2.0)) < 1e-14


def test_metric_domain_is_line_or_circle():
    with pytest.raises(ValueError, match="unknown domain 'interval'"):
        Metric1D(g=lambda q: np.ones_like(np.asarray(q, dtype=float)), domain="interval",
                 s=lambda q: q, s_inv=lambda s: s)


def whole_grid_then_masked(fsym, q, v):
    """The evaluation the support restriction must reproduce: every point, then np.where."""
    q, v = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(v, dtype=float))
    if fsym.symbol is not None:
        out = np.asarray(fsym.symbol(q, v), dtype=complex)
    else:
        spline = landsman_mod._QuinticSpline(fsym.base.points, fsym.fiber.points, fsym.values)
        out = spline(q.ravel(), v.ravel()).reshape(q.shape)
    return np.where(np.abs(v) <= fsym.support_radius, out, 0.0)


@pytest.mark.parametrize("closed_form", [True, False])
def test_evaluate_only_inside_support_is_bit_identical(closed_form):
    fA, fB, sA, sB = exp2q_pair(96)
    fsym = sA if closed_form else fiber_fourier(fA, EXP2Q)
    R = fsym.support_radius
    q = np.linspace(-1.5, 1.5, 23)[:, None]
    v = np.concatenate([np.linspace(-2 * R, 2 * R, 37), [R, -R, np.nextafter(R, 0.0)]])[None, :]
    got = fsym.evaluate(q, v)
    assert got.shape == (23, 40)
    assert np.array_equal(got, whole_grid_then_masked(fsym, q, v))
    assert np.all(got[:, -3:] != 0.0) and np.all(got[:, np.abs(v[0]) > R] == 0.0)
    # the kernel's (n, n) inputs and scalar inputs, at and beyond the radius
    x = fsym.base.points
    qq, XX = phi_hbar_inverse(x[:, None], x[None, :], 0.1, EXP2Q)
    assert np.array_equal(fsym.evaluate(qq, XX), whole_grid_then_masked(fsym, qq, XX))
    for vs in (0.3, R, -R, np.nextafter(R, np.inf)):
        one = fsym.evaluate(0.2, vs)
        assert one.shape == () and np.array_equal(one, whole_grid_then_masked(fsym, 0.2, vs))
    assert fsym.evaluate(0.2, np.nextafter(R, np.inf)) == 0.0


def test_spline_built_once_per_symbol(monkeypatch):
    built = []
    spline = landsman_mod._QuinticSpline

    def counting(*args, **kwargs):
        built.append(args)
        return spline(*args, **kwargs)

    monkeypatch.setattr(landsman_mod, "_QuinticSpline", counting)
    fA, fB, sA, sB = exp2q_pair(64)
    fsym = fiber_fourier(fA, EXP2Q)
    hbar = 0.5 * hbar_admissible(fsym, EXP2Q)
    for h in (hbar, hbar / 2):
        landsman_kernel(fsym, h, EXP2Q)
    fsym.evaluate(0.1, 0.0)
    assert len(built) == 1
    fiber_fourier(fB, EXP2Q).evaluate(0.1, 0.0)
    assert len(built) == 2


@pytest.mark.parametrize("n", [96, 384])
def test_spline_is_fitpacks_interpolant(n):
    # FITPACK's s = 0 quintic interpolant (RectBivariateSpline) is the oracle:
    # the same knots, and the same values at the chart points of the exp2q
    # bracket kernel (n = 384 is the default exp2q grid), at the grid nodes
    # and beyond the grid, where both read the nearest edge
    fA, fB, sA, sB = exp2q_pair(n)
    fsym = fiber_fourier(sample(poisson_field(fA.symbol, fB.symbol), fA.grid), EXP2Q)
    spline = landsman_mod._QuinticSpline(fsym.base.points, fsym.fiber.points, fsym.values)
    re, im = (RectBivariateSpline(fsym.base.points, fsym.fiber.points, part, kx=5, ky=5)
              for part in (fsym.values.real, fsym.values.imag))
    assert np.array_equal(spline.tx, re.get_knots()[0])
    assert np.array_equal(spline.ty, re.get_knots()[1])
    x = fsym.base.points
    q, X = phi_hbar_inverse(x[:, None], x[None, :], 0.9 * hbar_admissible(fsym, EXP2Q), EXP2Q)
    inside = np.abs(X) <= fsym.support_radius
    nodes_q, nodes_v = np.meshgrid(x, fsym.fiber.points, indexing="ij")
    for q, v in ((q[inside], X[inside]), (nodes_q.ravel(), nodes_v.ravel()),
                 (np.array([-3.0, 2.5, 0.3]), np.array([0.2, -20.0, 40.0]))):
        want = re.ev(q, v) + 1j * im.ev(q, v)
        assert np.max(np.abs(spline(q, v) - want)) <= 1e-13 * np.max(np.abs(fsym.values))
    with pytest.raises(GridError, match="at least 6 points"):
        landsman_mod._QuinticSpline(np.arange(5.0), np.arange(8.0), np.zeros((5, 8)))


# ----------------------------------------------------------- geodesic charts

def test_exp_map_flat_and_zero():
    assert exp_map(1.2, 0.7, FLAT) == pytest.approx(1.9, abs=1e-14)
    for metric in (FLAT, EXP2Q):
        assert exp_map(0.37, 0.0, metric) == pytest.approx(0.37, abs=1e-14)


def test_exp_map_exp2q_closed_form():
    # s(q) = e^q gives exp_q(X) = q + log(1 + X), valid for X > -1
    for q, X in ((0.5, 0.3), (-1.0, 2.0), (0.0, -0.5)):
        assert exp_map(q, X, EXP2Q) == pytest.approx(q + np.log1p(X), abs=1e-12)
    with pytest.raises(DomainError):
        exp_map(0.0, -1.5, EXP2Q)


def test_phi_hbar_flat_matches_affine_chart():
    q, X, hbar = 0.4, 1.7, 0.25
    x, xp = phi_hbar(q, X, hbar, FLAT)
    assert x == pytest.approx(q + hbar * X / 2)
    assert xp == pytest.approx(q - hbar * X / 2)
    qq, XX = phi_hbar_inverse(x, xp, hbar, FLAT)
    assert qq == pytest.approx((x + xp) / 2)
    assert XX == pytest.approx((x - xp) / hbar)


def test_phi_hbar_round_trips():
    for metric, tol in ((FLAT, 1e-10), (EXP2Q, 1e-8)):
        q, X = phi_hbar_inverse(*phi_hbar(0.4, 1.7, 0.25, metric), 0.25, metric)
        assert abs(q - 0.4) < tol
        assert abs(X - 1.7) < tol


def test_numeric_arclength_agrees_with_closed_form():
    num = metric_numeric(lambda q: np.exp(2.0 * np.asarray(q, dtype=float)), -4, 4)
    qs = np.linspace(-3, 3, 11)
    want = np.exp(qs) - np.exp(-4.0)
    assert np.max(np.abs(num.arclength(qs) - want)) < 1e-12
    assert np.max(np.abs(num.arclength_inverse(num.arclength(qs)) - qs)) < 1e-12
    # the ends of the table, and points off the cell edges
    ends = np.array([-4.0, 4.0, -3.9999, 3.9999, 0.12345])
    assert np.max(np.abs(num.arclength(ends) - (np.exp(ends) - np.exp(-4.0)))) < 1e-12
    assert num.arclength(1.5).shape == ()


@pytest.mark.parametrize("q", [5.0, 6.0, -4.5, [0.0, 4.0 + 1e-9]])
def test_numeric_arclength_refuses_to_extrapolate(q):
    num = metric_numeric(lambda q: np.exp(2.0 * np.asarray(q, dtype=float)), -4, 4)
    with pytest.raises(DomainError, match=r"outside the tabulated range \[-4, 4\]"):
        num.arclength(q)


def test_numeric_metric_refuses_nonpositive_g():
    with pytest.raises(ValueError, match="metric must be positive on its domain"):
        metric_numeric(lambda q: np.asarray(q, dtype=float), -1.0, 1.0)


def test_circle_period_is_read_from_its_chart():
    # g = 4 on [0, 1): arclength 2q, so the period is 2, not the length 1 of [0, 1)
    circ = Metric1D(g=lambda q: 4.0 * np.ones_like(np.asarray(q, dtype=float)),
                    s=lambda q: 2.0 * np.asarray(q), s_inv=lambda s: np.asarray(s) / 2.0,
                    domain="circle", lo=0.0, hi=1.0)
    assert exp_map(0.5, 0.25, circ) == pytest.approx(0.75)
    x, xp = phi_hbar(0.02, 0.3, 0.25, circ)
    assert (x, xp) == (pytest.approx(0.0575), pytest.approx(0.9825))  # across the seam
    q, X = phi_hbar_inverse(x, xp, 0.25, circ)
    assert abs(q - 0.02) < 1e-12 and abs(X - 0.3) < 1e-12
    vax = Grid1D(-8.0, 8.0, 64)
    fsym = FiberSymbol(base=Grid1D(0.0, 1.0, 64), fiber=vax,
                       values=np.ones((64, 64), dtype=complex), support_radius=6.0)
    assert hbar_admissible(fsym, circ) == 2.0 / (2.0 * 2.0 * 6.0)


# --------------------------------------------------------------- quantization

def test_circle_kernel_hermitian():
    # the circle report's experiment, held to 1e-12 instead of its 1e-10 gate
    rows, _, _ = circle_hermiticity(128, HbarSchedule(1.0, 0.5, 2))
    assert max(herm for _, herm, _ in rows) < 1e-12


def test_exp2q_kernel_hermitian_for_real_symbol():
    fA, fB, sA, sB = exp2q_pair(256)
    hbar = 0.9 * hbar_admissible(sA, EXP2Q)
    k = landsman_kernel(sA, hbar, EXP2Q)
    assert np.max(np.abs(k.matrix - k.matrix.conj().T)) < 1e-10


def test_admissibility_guard():
    fA, fB, sA, sB = exp2q_pair(128)
    limit = hbar_admissible(sA, EXP2Q)
    with pytest.raises(AdmissibilityError, match="hbar"):
        landsman_kernel(sA, 2.0 * limit, EXP2Q)


def test_zero_symbol_quantizes_to_zero():
    axis = Grid1D(-4.0, 4.0, 64)
    vax = Grid1D(-6.0, 6.0, 64)
    fsym = FiberSymbol(base=axis, fiber=vax,
                       values=np.zeros((64, 64), dtype=complex),
                       support_radius=3.0, symbol=lambda q, v: np.zeros_like(q + v))
    k = landsman_kernel(fsym, 0.25, FLAT)
    assert np.all(k.matrix == 0.0)


def test_weighted_norm_limit_exp2q():
    fA, fB, sA, sB = exp2q_pair(384)
    adm = hbar_admissible(sA, EXP2Q)
    norms = []
    for hbar in min(0.9 * adm, 0.16) * 0.5 ** np.arange(4):
        norms.append(op_norm(landsman_kernel(sA, hbar, EXP2Q)))
    gaps = np.abs(np.array(norms) - fA.sup_norm())
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] < 0.1 * fA.sup_norm()


# ------------------------------------------------- the L^2(dx) frame vs L^2(sqrt(g) dx)

def kernel_in_sqrt_g_frame(fsym, hbar, metric):
    """The kernel ``(1/hbar) ft(phi_hbar^{-1}(x_i, x_j))`` acting on L^2(sqrt(g) dx)."""
    x = fsym.base.points
    q, X = phi_hbar_inverse(x[:, None], x[None, :], hbar, metric)
    return OperatorKernel(grid=fsym.base, matrix=fsym.evaluate(q, X) / hbar, hbar=hbar)


def sqrt_g_apply(kernel, psi, metric):
    """Action on L^2(sqrt(g) dx): ``sum_j K[i, j] psi_j sqrt(g(x_j)) dx``."""
    w = metric.sqrt_g(psi.grid.points)
    return WaveFunction(grid=psi.grid, values=kernel.matrix @ (psi.values * w) * kernel.grid.delta)


def sqrt_g_compose(a, b, metric):
    """Operator product with the sqrt(g)-weighted measure in the middle."""
    w = metric.sqrt_g(a.grid.points)
    return OperatorKernel(grid=a.grid, matrix=(a.matrix * w[None, :]) @ b.matrix * a.grid.delta,
                          hbar=a.hbar)


def sqrt_g_op_norm(kernel, metric):
    """Operator norm on L^2(sqrt(g) dx) via the similarity-transformed matrix."""
    w = np.sqrt(metric.sqrt_g(kernel.grid.points) * kernel.grid.delta)
    return float(np.linalg.svd(w[:, None] * kernel.matrix * w[None, :], compute_uv=False)[0])


def sqrt_g_generalized_norm(kernel, metric):
    """The L^2(sqrt(g) dx) norm of the operator T = K D, D = diag(sqrt(g) dx), as
    the top generalized eigenvalue of (T^H D T, D): no similarity transform."""
    d = metric.sqrt_g(kernel.grid.points) * kernel.grid.delta
    t = kernel.matrix * d[None, :]
    top = eigh(t.conj().T @ (d[:, None] * t), np.diag(d), eigvals_only=True)[-1]
    return float(np.sqrt(top))


@pytest.fixture(scope="module")
def frame_cases():
    """(metric, symbol A, symbol B, hbar) over flat, circle, exp2q and a numeric metric."""
    cases = []
    axis = Grid1D(-12.0, 12.0, 192)
    gA = GaussianObservable(0.2, -0.3, 1.0, 0.8)
    gB = GaussianObservable(-0.4, 0.5, 0.7, 1.1)
    fiber = fiber_fourier(sampled_gaussian(gA, Grid2D(axis, axis)), FLAT).fiber
    cases.append((FLAT, gaussian_fiber_symbol(gA, FLAT, axis, fiber),
                  gaussian_fiber_symbol(gB, FLAT, axis, fiber), 0.5))

    circ = metric_circle()
    caxis, vax = Grid1D(0.0, 1.0, 128), Grid1D(-8.0, 8.0, 128)

    def circle_symbol(shift):
        def ft(q, v):
            q, v = np.asarray(q), np.asarray(v)
            return (1.0 + 0.3 * np.cos(2 * np.pi * (q - shift))) * np.exp(-v ** 2 + 0.4j * v)
        values = ft(caxis.points[:, None], vax.points[None, :]).astype(complex)
        return FiberSymbol(base=caxis, fiber=vax, values=values, support_radius=6.0, symbol=ft)

    sA, sB = circle_symbol(0.0), circle_symbol(0.3)
    cases.append((circ, sA, sB, 0.9 * hbar_admissible(sA, circ)))

    fA, fB, eA, eB = exp2q_pair(160)
    cases.append((EXP2Q, eA, eB, 0.5 * min(hbar_admissible(s, EXP2Q) for s in (eA, eB))))

    bumpy = metric_numeric(lambda q: (1.0 + 0.5 * np.tanh(np.asarray(q, dtype=float))) ** 2,
                           -8.0, 8.0)
    baxis = Grid1D(-3.0, 3.0, 160)
    bfiber = fiber_fourier(sampled_gaussian(gA, Grid2D(baxis, Grid1D(-12.0, 12.0, 160))),
                           bumpy).fiber
    bA = gaussian_fiber_symbol(GaussianObservable(0.2, -0.3, 0.1, 1.0), bumpy, baxis, bfiber)
    bB = gaussian_fiber_symbol(GaussianObservable(-0.1, 0.5, 0.08, 0.9), bumpy, baxis, bfiber)
    cases.append((bumpy, bA, bB, 0.5 * min(hbar_admissible(s, bumpy) for s in (bA, bB))))
    return cases


@pytest.mark.parametrize("case", range(4), ids=["flat", "circle", "exp2q", "numeric"])
def test_weyl_calculus_serves_landsman_kernels(frame_cases, case):
    # apply, compose and op_norm of the L^2(dx)-frame kernels agree with the
    # L^2(sqrt(g) dx) formulas transported by the unitary psi -> g^{1/4} psi;
    # the symmetric weight keeps kernels of real symbols exactly Hermitian
    metric, sA, sB, hbar = frame_cases[case]
    x = sA.base.points
    r = np.sqrt(metric.sqrt_g(x))
    ka, kb = landsman_kernel(sA, hbar, metric), landsman_kernel(sB, hbar, metric)
    oa, ob = (kernel_in_sqrt_g_frame(s, hbar, metric) for s in (sA, sB))
    assert np.array_equal(ka.matrix, ka.matrix.conj().T)
    psi = WaveFunction(grid=sA.base, values=np.exp(-x ** 2 + 0.3j * x))
    got = apply(ka, WaveFunction(grid=sA.base, values=r * psi.values)).values
    want = r * sqrt_g_apply(oa, psi, metric).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    got = compose(ka, kb).matrix
    want = np.outer(r, r) * sqrt_g_compose(oa, ob, metric).matrix
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    for k, o in ((ka, oa), (kb, ob)):
        want = sqrt_g_op_norm(o, metric)
        assert abs(op_norm(k) - want) <= 1e-13 * want
        assert abs(op_norm(k) - sqrt_g_generalized_norm(o, metric)) <= 1e-12 * want
