import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from strictq.cli import _grid, build_parser, parse_gaussian_spec
from strictq.core import Grid1D, Grid2D
from strictq.gaussian import (
    DegenerateParameterError,
    GaussianObservable,
    expectation_closed_form,
    gaussian_kernel_closed_form,
    gaussian_symbol,
    positivity_intermediates,
    positivity_verdict,
    psi_sigma_vector,
)
from strictq.weyl import AliasingError, op_norm, star_product, weyl_kernel

from conftest import chi_vector, sampled_gaussian

QGRID = Grid1D(-20.0, 20.0, 1024)


# ------------------------------------------------------------------ symbol

def test_symbol_center_and_half_height():
    g = GaussianObservable(q0=0.7, p0=-1.1, alpha=1.3, beta=0.6)
    f = gaussian_symbol(g)
    assert_allclose(f(g.q0, g.p0), 2.0)
    # solve 2 e^{-t} = 1 along the q direction
    assert_allclose(f(g.q0 + np.sqrt(2 * g.alpha * np.log(2)), g.p0), 1.0)


def test_symbol_sup_on_grid(box16):
    # center placed on a grid point: the sup over the grid is the amplitude 2
    q0 = float(box16.qaxis.points[260])
    p0 = float(box16.paxis.points[250])
    f = sampled_gaussian(GaussianObservable(q0=q0, p0=p0), box16)
    assert f.sup_norm() == pytest.approx(2.0, abs=1e-13)


@pytest.mark.parametrize("field", ["q0", "p0", "alpha", "beta"])
def test_observable_needs_finite_parameters(field):
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="need finite q0, p0, alpha, beta"):
            GaussianObservable(**{field: value})


def test_observable_validation():
    with pytest.raises(ValueError):
        GaussianObservable(alpha=-1.0)


# -------------------------------------------------------------- chi vector

def test_chi_norm_squared():
    # oracle: int |chi|^2 = 2 sqrt(alpha beta) / hbar (analytic Gaussian integral)
    g = GaussianObservable(q0=0.4, p0=0.9, alpha=1.2, beta=0.8)
    hbar = 0.7
    chi = chi_vector(g, hbar, QGRID)
    want = 2.0 * np.sqrt(g.alpha * g.beta) / hbar
    assert abs(chi.norm() ** 2 - want) / want < 1e-6


def test_chi_center_value_and_reality():
    g = GaussianObservable(q0=0.0, p0=0.0, alpha=1.0, beta=1.3)
    hbar = 0.5
    chi = chi_vector(g, hbar, Grid1D(-8, 8, 256))
    # value at q0 is the normalization prefactor
    peak = (2 * g.beta / (np.pi * hbar**2)) ** 0.25
    idx = np.argmin(np.abs(Grid1D(-8, 8, 256).points - g.q0))
    assert abs(chi.values[idx]) == pytest.approx(peak, rel=1e-3)
    assert np.max(np.abs(chi.values.imag)) == 0.0


# ------------------------------------------------------------ closed kernel

def test_kernel_rank_one_at_threshold():
    hbar = 1.0
    g = GaussianObservable(q0=0.3, p0=0.2, alpha=0.8, beta=(hbar / 2) ** 2 / 0.8)
    k = gaussian_kernel_closed_form(g, hbar, QGRID)
    chi = chi_vector(g, hbar, QGRID).values
    assert np.max(np.abs(k.matrix - np.conj(chi)[:, None] * chi[None, :])) < 1e-14


def test_kernel_matches_quadrature_weyl(box16):
    g = GaussianObservable(q0=0.3, p0=-0.4, alpha=1.1, beta=0.9)
    f = sampled_gaussian(g, box16)
    quad = weyl_kernel(f, 1.0, box16.qaxis)
    closed = gaussian_kernel_closed_form(g, 1.0, box16.qaxis)
    assert np.max(np.abs(quad.matrix - closed.matrix)) < 1e-6


def test_kernel_one_exponent_matches_packet_product():
    # where the factors are finite, the one exponent is conj(chi) chi times
    # the coupling e^{-Theta d^2/2}
    g = GaussianObservable(q0=0.3, p0=-0.7, alpha=0.8, beta=0.6)
    hbar = 0.9
    chi = chi_vector(g, hbar, QGRID).values
    theta = positivity_intermediates(g, 1.0, hbar).theta
    q = QGRID.points
    want = np.conj(chi)[:, None] * chi[None, :] * np.exp(-0.5 * theta * (q[:, None] - q) ** 2)
    got = gaussian_kernel_closed_form(g, hbar, QGRID).matrix
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("hbar", [0.1, 0.01])
def test_positivity_below_threshold_at_small_hbar(hbar):
    # alpha = beta = sqrt(r) hbar/2, as in `strictq positivity`: Theta < 0, and
    # the coupling e^{-Theta d^2/2} overflowed where chi underflowed, leaving
    # NaN in the kernel; the one exponent stays bounded and meets Mehler's
    # k = 1 eigenvalue 2(1-u)/(1+u)^2, u = 1/sqrt(r), as at hbar = 1
    qgrid = Grid1D(-16.0, 16.0, 512)
    for ratio in (0.25, 0.5, 0.75):
        side = np.sqrt(ratio) * hbar / 2.0
        u = 1.0 / np.sqrt(ratio)
        verdict = positivity_verdict(GaussianObservable(alpha=side, beta=side), hbar, qgrid)
        assert abs(verdict["min_eigenvalue"] - 2.0 * (1.0 - u) / (1.0 + u) ** 2) <= 1e-9


def test_unresolved_packet_refused():
    qgrid = Grid1D(-16.0, 16.0, 512)  # dq = 1/16, band |k| <= 16 pi
    # a packet narrower than the spacing: no hbar resolves it
    with pytest.raises(AliasingError, match="no hbar resolves it") as err:
        positivity_verdict(GaussianObservable(alpha=1e-3, beta=1.0), 1.0, qgrid)
    assert err.value.hbar_min == np.inf
    # the envelope of width 1 takes |k| <= pi of the band; the carrier 30/hbar
    # must fit in the remaining 15 pi
    g = GaussianObservable(p0=30.0, alpha=0.5, beta=1.0)
    with pytest.raises(AliasingError, match="minimal usable hbar") as err:
        gaussian_kernel_closed_form(g, 0.5, qgrid)
    assert err.value.hbar_min == pytest.approx(2.0 / np.pi, rel=1e-14)
    assert np.all(np.isfinite(gaussian_kernel_closed_form(g, err.value.hbar_min, qgrid).matrix))


def test_kernel_hermitian():
    g = GaussianObservable(q0=-0.5, p0=1.2, alpha=0.6, beta=1.4)
    k = gaussian_kernel_closed_form(g, 0.8, QGRID)
    assert np.max(np.abs(k.matrix - k.matrix.conj().T)) < 1e-12


# -------------------------------------------------------------- expectation

def test_expectation_zero_at_threshold():
    hbar = 1.0
    g = GaussianObservable(alpha=0.9, beta=(hbar / 2) ** 2 / 0.9)
    assert expectation_closed_form(g, sigma=1.3, hbar=hbar) == 0.0


def test_expectation_sign_is_sign_of_theta():
    hbar = 1.0
    for ratio, sigma in [(0.3, 0.7), (0.5, 1.5), (2.0, 0.9), (4.0, 2.0)]:
        alpha = 0.8
        beta = ratio * (hbar / 2) ** 2 / alpha
        g = GaussianObservable(alpha=alpha, beta=beta)
        inter = positivity_intermediates(g, sigma, hbar)
        val = expectation_closed_form(g, sigma, hbar)
        assert np.sign(val) == np.sign(inter.theta)
        assert inter.dee > 0


def test_expectation_degenerate_parameters():
    g = GaussianObservable(alpha=1.0, beta=1.0)
    inter = positivity_intermediates(g, 1.0, 1.0)
    bad_sigma = -1.0 / (1.0 / (2 * g.alpha) + 2 * inter.theta)
    with pytest.raises(DegenerateParameterError):
        expectation_closed_form(g, bad_sigma, 1.0)


@pytest.mark.parametrize("hbar", [0.0, -0.5])
def test_nonpositive_hbar_refused(hbar):
    # the packet divides by sqrt(hbar), Theta by hbar^2 and the probe by
    # hbar: hbar = 0 must not reach them
    g = GaussianObservable()
    for call in (lambda: chi_vector(g, hbar, QGRID),
                 lambda: psi_sigma_vector(g, 1.0, hbar, QGRID),
                 lambda: positivity_intermediates(g, 1.0, hbar),
                 lambda: positivity_verdict(g, hbar, QGRID)):
        with pytest.raises(ValueError, match=f"need hbar > 0, got {hbar}"):
            call()


def test_psi_sigma_orthogonal_to_packet():
    # phase-matched pairing: the packet the projector ranges over is conj(chi),
    # so <conj chi, psi_sigma> = int chi psi_sigma has an odd real integrand
    g = GaussianObservable(q0=0.4, p0=1.1, alpha=0.9, beta=0.7)
    hbar = 0.8
    chi = chi_vector(g, hbar, QGRID).values
    psi = psi_sigma_vector(g, 1.2, hbar, QGRID).values
    overlap = np.sum(chi * psi) * QGRID.delta
    scale = np.sqrt(np.sum(np.abs(chi) ** 2) * np.sum(np.abs(psi) ** 2)) * QGRID.delta
    assert abs(overlap) / scale < 1e-8


# --------------------------------------------------------------- positivity

@pytest.mark.parametrize("ratio,expected", [
    (0.25, False), (0.5, False), (0.75, False),
    (1.0, True), (1.5, True), (2.0, True),
])
def test_positivity_threshold(ratio, expected):
    hbar = 1.0
    qgrid = Grid1D(-16.0, 16.0, 512)
    side = np.sqrt(ratio) * hbar / 2.0
    verdict = positivity_verdict(GaussianObservable(alpha=side, beta=side), hbar, qgrid)
    assert verdict["positive"] is expected
    if not expected:
        assert verdict["min_eigenvalue"] < -1e-6 * verdict["scale"]


def test_positivity_rank_one_floor():
    hbar = 1.0
    g = GaussianObservable(alpha=0.5, beta=(hbar / 2) ** 2 / 0.5)
    verdict = positivity_verdict(g, hbar, Grid1D(-16.0, 16.0, 512))
    assert verdict["min_eigenvalue"] >= -1e-8


# ------------------------------------------------------- Mehler closed form

def default_observables(command):
    """The default ``strictq axioms`` observables and the default grid of ``command``."""
    args = build_parser().parse_args([command])
    axioms = build_parser().parse_args(["axioms"])
    return [parse_gaussian_spec(s) for s in (axioms.f_spec, axioms.g_spec)], _grid(args)


def mehler_u(g, hbar):
    return hbar / (2.0 * np.sqrt(g.alpha * g.beta))


@pytest.mark.parametrize("hbar", [1.0, 0.25, 1.0 / 64])
def test_op_norm_meets_mehler_closed_form(hbar):
    # Q(f) of f = 2 exp(-(q-q0)^2/2 alpha - (p-p0)^2/2 beta) is unitarily a
    # function of the harmonic oscillator with eigenvalues
    # 2/(1+u) ((1-u)/(1+u))^k, k >= 0, u = hbar / (2 sqrt(alpha beta))
    observables, grid = default_observables("axioms")
    for g in observables:
        want = 2.0 / (1.0 + mehler_u(g, hbar))
        got = op_norm(weyl_kernel(sampled_gaussian(g, grid), hbar, grid.qaxis))
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("hbar", [2.0, 1.0, 0.25, 1.0 / 64])
def test_positivity_verdict_meets_mehler_closed_form(hbar):
    # beyond u = 1 (alpha beta < (hbar/2)^2) the k = 1 eigenvalue
    # 2(1-u)/(1+u)^2 is the most negative one; below it none is negative
    observables, grid = default_observables("positivity")
    for g in observables:
        u = mehler_u(g, hbar)
        verdict = positivity_verdict(g, hbar, grid.qaxis)
        assert verdict["positive"] is bool(u <= 1.0)
        if u > 1.0:
            assert abs(verdict["min_eigenvalue"] - 2.0 * (1.0 - u) / (1.0 + u) ** 2) <= 1e-12


# --------------------------------------------------------- Moyal closed form

def moyal_product(f, g, hbar, grid):
    """Exact Moyal product of two Gaussian observables on the points of ``grid``.

    (f * g)(z) = (pi hbar)^-2 int int f(z + a) g(z + b)
    exp((2i/hbar)(a_q b_p - a_p b_q)) da db is one Gaussian integral over
    u = (a, b) in R^4, int exp(-u.M u/2 - w.u) du = (2 pi)^2 det(M)^(-1/2)
    exp(w.M^-1 w/2), with a complex symmetric M independent of z.
    """
    widths = np.array([1.0 / f.alpha, 1.0 / f.beta, 1.0 / g.alpha, 1.0 / g.beta])
    m = np.diag(widths).astype(complex)
    m[0, 3] = m[3, 0] = -2j / hbar
    m[1, 2] = m[2, 1] = 2j / hbar
    qq, pp = grid.meshes()
    d = np.stack([qq - f.q0, pp - f.p0, qq - g.q0, pp - g.p0]).reshape(4, -1)
    w = widths[:, None] * d
    exponent = 0.5 * np.sum(w * np.linalg.solve(m, w), axis=0) - 0.5 * np.sum(w * d, axis=0)
    values = 16.0 / (hbar**2 * np.sqrt(np.linalg.det(m))) * np.exp(exponent)
    return values.reshape(qq.shape)


def star_gaps(f, g, hbar, grid):
    """Sup gaps of ``star_product`` to the exact f * g, relative, and of its
    bracket 2 Im(f * g)/hbar (the rows' star commutator for real f, g),
    relative to max(sup of the exact bracket, 1): f = g has none."""
    exact = moyal_product(f, g, hbar, grid)
    got = star_product(sampled_gaussian(f, grid), sampled_gaussian(g, grid), hbar).values
    bracket, bracket_exact = 2.0 * got.imag / hbar, 2.0 * exact.imag / hbar
    return (np.max(np.abs(got - exact)) / np.max(np.abs(exact)),
            np.max(np.abs(bracket - bracket_exact)) / max(np.max(np.abs(bracket_exact)), 1.0))


@pytest.mark.parametrize("hbar", [0.25, 1.0 / 16])
def test_star_product_meets_moyal_closed_form(hbar):
    # on the default axioms grid; at hbar = 1 and 1/64 the box and the band
    # edge cost about 1e-7, which the closed form exposes but this test omits
    (f, g), grid = default_observables("axioms")
    product_gap, bracket_gap = star_gaps(f, g, hbar, grid)
    assert product_gap <= 1e-13
    assert bracket_gap <= 1e-12


moyal_gaussians = st.builds(GaussianObservable, q0=st.floats(-0.5, 0.5),
                            p0=st.floats(-0.5, 0.5), alpha=st.floats(0.4, 0.7),
                            beta=st.floats(0.4, 0.7))


@settings(max_examples=40)
@given(f=moyal_gaussians, g=moyal_gaussians, hbar=st.floats(0.125, 0.25))
def test_star_product_meets_moyal_closed_form_random(f, g, hbar):
    axis = Grid1D(-6.0, 6.0, 256)
    product_gap, bracket_gap = star_gaps(f, g, hbar, Grid2D(axis, axis))
    assert product_gap <= 1e-12
    assert bracket_gap <= 1e-11
