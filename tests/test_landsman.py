import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.interpolate import RectBivariateSpline
from scipy.linalg import eigh

from strictq.asymptotics import jordan, quantum_bracket
from strictq.core import Grid1D, Grid2D, fourier_fiber as flat_fiber, sample
from strictq.gaussian import GaussianObservable
from strictq.landsman import (
    AdmissibilityError,
    DomainError,
    FiberSymbol,
    Metric1D,
    exp_map,
    fiber_fourier,
    gaussian_fiber_symbol,
    hbar_admissible,
    landsman_kernel,
    metric_circle,
    metric_exp2q,
    metric_flat,
    phi_hbar,
    phi_hbar_inverse,
)
from strictq.symbols import gaussian_field, poisson_field
from strictq.weyl import OperatorKernel, WaveFunction, apply, compose, op_norm, weyl_kernel

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


def whole_grid_then_masked(fsym, q, v):
    """The evaluation the support restriction must reproduce: every point, then np.where."""
    q, v = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(v, dtype=float))
    if fsym.symbol is not None:
        out = np.asarray(fsym.symbol(q, v), dtype=complex)
    else:
        re, im = (RectBivariateSpline(fsym.base.points, fsym.fiber.points, part, kx=5, ky=5)
                  for part in (fsym.values.real, fsym.values.imag))
        out = (re.ev(q.ravel(), v.ravel()) + 1j * im.ev(q.ravel(), v.ravel())).reshape(q.shape)
    return np.where(np.abs(v) <= fsym.support_radius, out, 0.0)


@pytest.mark.parametrize("closed_form", [True, False])
def test_evaluate_only_inside_support_is_bit_identical(closed_form):
    axis = Grid1D(-2.0, 2.0, 96)
    pax = Grid1D(-12.0, 12.0, 96)
    g = GaussianObservable(0.0, -0.2, 0.05, 1.0)
    fsym = fiber_fourier(sampled_gaussian(g, Grid2D(axis, pax)), EXP2Q)
    if closed_form:
        fsym = gaussian_fiber_symbol(g, EXP2Q, axis, fsym.fiber)
    R = fsym.support_radius
    q = np.linspace(-1.5, 1.5, 23)[:, None]
    v = np.concatenate([np.linspace(-2 * R, 2 * R, 37), [R, -R, np.nextafter(R, 0.0)]])[None, :]
    got = fsym.evaluate(q, v)
    assert got.shape == (23, 40)
    assert np.array_equal(got, whole_grid_then_masked(fsym, q, v))
    assert np.all(got[:, -3:] != 0.0) and np.all(got[:, np.abs(v[0]) > R] == 0.0)
    # the kernel's (n, n) inputs and scalar inputs, at and beyond the radius
    x = axis.points
    qq, XX = phi_hbar_inverse(x[:, None], x[None, :], 0.1, EXP2Q)
    assert np.array_equal(fsym.evaluate(qq, XX), whole_grid_then_masked(fsym, qq, XX))
    for vs in (0.3, R, -R, np.nextafter(R, np.inf)):
        one = fsym.evaluate(0.2, vs)
        assert one.shape == () and np.array_equal(one, whole_grid_then_masked(fsym, 0.2, vs))
    assert fsym.evaluate(0.2, np.nextafter(R, np.inf)) == 0.0


def test_spline_built_once_per_symbol(monkeypatch):
    import strictq.landsman as landsman_mod

    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return RectBivariateSpline(*args, **kwargs)

    monkeypatch.setattr(landsman_mod, "RectBivariateSpline", counting)
    base, grid, fA, fB, sA, sB = exp2q_setup(64)
    fsym = fiber_fourier(fA, EXP2Q)
    hbar = 0.5 * hbar_admissible(fsym, EXP2Q)
    for h in (hbar, hbar / 2):
        landsman_kernel(fsym, h, EXP2Q)
    fsym.evaluate(0.1, 0.0)
    assert len(built) == 2
    fiber_fourier(fB, EXP2Q).evaluate(0.1, 0.0)
    assert len(built) == 4


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
    num = Metric1D(g=lambda q: np.exp(2.0 * np.asarray(q, dtype=float)), lo=-4, hi=4)
    qs = np.linspace(-3, 3, 11)
    want = np.exp(qs) - np.exp(-4.0)
    assert np.max(np.abs(num.arclength(qs) - want)) < 1e-12
    assert np.max(np.abs(num.arclength_inverse(num.arclength(qs)) - qs)) < 1e-12


# --------------------------------------------------------------- quantization

@pytest.fixture(scope="module")
def flat_setup():
    axis = Grid1D(-12.0, 12.0, 384)
    grid = Grid2D(axis, axis)
    g = GaussianObservable(0.2, -0.3, 1.0, 0.8)
    f = sampled_gaussian(g, grid)
    fiber = fiber_fourier(f, FLAT).fiber
    fsym = gaussian_fiber_symbol(g, FLAT, axis, fiber)
    return axis, grid, f, fsym


@pytest.mark.parametrize("hbar", [1.0, 0.5, 0.25])
def test_flat_equivalence(flat_setup, hbar):
    axis, grid, f, fsym = flat_setup
    kl = landsman_kernel(fsym, hbar, FLAT)
    kw = weyl_kernel(f, hbar, axis)
    assert np.max(np.abs(kl.matrix - kw.matrix)) < 1e-5 * np.max(np.abs(kw.matrix))


def test_circle_kernel_hermitian():
    circ = metric_circle(1.0)
    axis = Grid1D(0.0, 1.0, 128)
    vax = Grid1D(-8.0, 8.0, 128)

    def ft(q, v):
        return (1.0 + 0.3 * np.cos(2 * np.pi * np.asarray(q))) * np.exp(-np.asarray(v) ** 2)

    values = ft(axis.points[:, None], vax.points[None, :]).astype(complex)
    fsym = FiberSymbol(base=axis, fiber=vax, values=values, support_radius=6.0,
                       symbol=ft)
    hbar = 0.9 * hbar_admissible(fsym, circ)
    k = landsman_kernel(fsym, hbar, circ)
    assert np.max(np.abs(k.matrix - k.matrix.conj().T)) < 1e-12


def exp2q_setup(n=384):
    base = Grid1D(-2.0, 2.0, n)
    pax = Grid1D(-12.0, 12.0, n)
    grid = Grid2D(base, pax)
    gA = GaussianObservable(0.0, -0.2, 0.05, 1.0)
    gB = GaussianObservable(0.1, 0.3, 0.06, 0.9)
    fA = sampled_gaussian(gA, grid)
    fB = sampled_gaussian(gB, grid)
    fiber = fiber_fourier(fA, EXP2Q).fiber
    sA = gaussian_fiber_symbol(gA, EXP2Q, base, fiber)
    sB = gaussian_fiber_symbol(gB, EXP2Q, base, fiber)
    return base, grid, fA, fB, sA, sB


def test_exp2q_kernel_hermitian_for_real_symbol():
    base, grid, fA, fB, sA, sB = exp2q_setup(256)
    hbar = 0.9 * hbar_admissible(sA, EXP2Q)
    k = landsman_kernel(sA, hbar, EXP2Q)
    assert np.max(np.abs(k.matrix - k.matrix.conj().T)) < 1e-10


def test_admissibility_guard():
    base, grid, fA, fB, sA, sB = exp2q_setup(128)
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
    base, grid, fA, fB, sA, sB = exp2q_setup()
    adm = hbar_admissible(sA, EXP2Q)
    norms = []
    for hbar in min(0.9 * adm, 0.16) * 0.5 ** np.arange(4):
        norms.append(op_norm(landsman_kernel(sA, hbar, EXP2Q)))
    gaps = np.abs(np.array(norms) - fA.sup_norm())
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] < 0.1 * fA.sup_norm()


def test_exp2q_axiom_transfer_dirac_vonneumann():
    base, grid, fA, fB, sA, sB = exp2q_setup()
    bracket = sample(poisson_field(fA.symbol, fB.symbol), grid)
    product = sample(fA.symbol * fB.symbol, grid)
    sBr = fiber_fourier(bracket, EXP2Q)
    sPr = fiber_fourier(product, EXP2Q)
    adm = min(hbar_admissible(s, EXP2Q) for s in (sA, sB, sBr, sPr))
    dirac, vonn = [], []
    for hbar in min(0.9 * adm, 0.16) * 0.5 ** np.arange(4):
        ka = landsman_kernel(sA, hbar, EXP2Q)
        kb = landsman_kernel(sB, hbar, EXP2Q)
        kbr = landsman_kernel(sBr, hbar, EXP2Q)
        kpr = landsman_kernel(sPr, hbar, EXP2Q)
        d = kbr.matrix - quantum_bracket(ka, kb, hbar).matrix
        v = kpr.matrix - jordan(ka, kb).matrix
        dirac.append(op_norm(OperatorKernel(grid=base, matrix=d, hbar=hbar)))
        vonn.append(op_norm(OperatorKernel(grid=base, matrix=v, hbar=hbar)))
    assert np.all(np.diff(dirac) < 0)
    assert np.all(np.diff(vonn) < 0)


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

    circ = metric_circle(1.0)
    caxis, vax = Grid1D(0.0, 1.0, 128), Grid1D(-8.0, 8.0, 128)

    def circle_symbol(shift):
        def ft(q, v):
            q, v = np.asarray(q), np.asarray(v)
            return (1.0 + 0.3 * np.cos(2 * np.pi * (q - shift))) * np.exp(-v ** 2 + 0.4j * v)
        values = ft(caxis.points[:, None], vax.points[None, :]).astype(complex)
        return FiberSymbol(base=caxis, fiber=vax, values=values, support_radius=6.0, symbol=ft)

    sA, sB = circle_symbol(0.0), circle_symbol(0.3)
    cases.append((circ, sA, sB, 0.9 * hbar_admissible(sA, circ)))

    base, grid, fA, fB, eA, eB = exp2q_setup(160)
    cases.append((EXP2Q, eA, eB, 0.5 * min(hbar_admissible(s, EXP2Q) for s in (eA, eB))))

    bumpy = Metric1D(g=lambda q: (1.0 + 0.5 * np.tanh(np.asarray(q, dtype=float))) ** 2,
                     lo=-8.0, hi=8.0)
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
