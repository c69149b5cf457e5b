import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from strictq.core import (
    DecayError,
    Grid1D,
    Grid2D,
    GridError,
    HbarSchedule,
    SampleError,
    SampledFunction,
    fourier_fiber,
    quadrature,
    sample,
)
from strictq.core import _fiber_phase
from strictq.gaussian import GaussianObservable, gaussian_symbol
from strictq.symbols import gaussian_field

from conftest import coordinate_field, random_gaussians, sampled_gaussian, spectral_derivative


def inverse_fourier_fiber(ft, paxis):
    """Oracle: the inverse of :func:`fourier_fiber` onto the momentum axis
    ``paxis``, ``f(q, p_j) = dv sum_k e^{-i p_j v_k} ft(q, v_k)``."""
    vaxis = ft.grid.paxis
    signs = (-1.0) ** np.arange(vaxis.n)
    pre = ft.values * _fiber_phase(paxis, vaxis.points)
    values = vaxis.delta * signs * np.fft.fft(pre, axis=1)
    return SampledFunction(grid=Grid2D(ft.grid.qaxis, paxis), values=values)


def poisson_bracket(f, g):
    """Oracle: the canonical bracket ``{f, g} = d_q f d_p g - d_p f d_q g`` by
    spectral derivatives, for two functions on one (q, p) grid."""
    if f.grid != g.grid:
        raise GridError("poisson_bracket needs both functions on the same grid")
    dq, dp = f.grid.qaxis.delta, f.grid.paxis.delta
    values = (spectral_derivative(f.values, 0, dq) * spectral_derivative(g.values, 1, dp)
              - spectral_derivative(f.values, 1, dp) * spectral_derivative(g.values, 0, dq))
    return SampledFunction(grid=f.grid, values=values)


# ---------------------------------------------------------------- grids

def test_grid_midpoint_convention():
    grid = Grid1D(-1.0, 1.0, 4)
    assert_allclose(grid.points, [-0.75, -0.25, 0.25, 0.75])
    assert grid.delta == 0.5


def test_grid_validation():
    with pytest.raises(GridError):
        Grid1D(1.0, -1.0, 8)
    with pytest.raises(GridError):
        Grid1D(0.0, 1.0, 1)


def test_schedule_decreasing_and_clipping():
    sched = HbarSchedule(start=1.0, ratio=0.5, count=7)
    values = sched.values
    assert np.all(np.diff(values) < 0)
    clipped = sched.clipped(0.1)
    assert clipped.count == 4  # 1, 1/2, 1/4, 1/8
    with pytest.raises(ValueError):
        HbarSchedule(start=1.0, ratio=1.5, count=3)


# ---------------------------------------------------------------- sample

def test_sample_constant():
    grid = Grid2D(Grid1D(-2, 2, 8), Grid1D(-3, 3, 16))
    f = sample(lambda q, p: np.ones(np.broadcast(q, p).shape), grid)
    assert_allclose(f.values, 1.0)


def test_sample_gaussian_center_value():
    # amplitude of the Gaussian observable at its center is 2
    f = gaussian_symbol(GaussianObservable())
    assert_allclose(f(0.0, 0.0), 2.0)


def test_sample_coordinate_midpoints():
    grid = Grid1D(-1.0, 1.0, 4)
    f = sample(lambda q: q, grid)
    assert_allclose(f.values, [-0.75, -0.25, 0.25, 0.75])


@pytest.mark.parametrize("symbol, dtype", [
    (lambda q, p: np.exp(-q**2 - p**2), np.float64),
    (lambda q, p: np.ones(np.broadcast(q, p).shape, dtype=int), np.float64),
    (lambda q, p: np.exp(1j * q * p), np.complex128),
    # complex, though every imaginary part is zero
    (lambda q, p: np.exp(-q**2 - p**2) + 0j, np.complex128),
], ids=["real", "integer", "complex", "complex-zero-imaginary"])
def test_sample_dtype_follows_symbol(symbol, dtype):
    grid = Grid2D(Grid1D(-2, 2, 8), Grid1D(-3, 3, 16))
    f = sample(symbol, grid)
    assert f.values.dtype == dtype
    assert np.array_equal(f.values, symbol(*grid.meshes()))
    line = sample(lambda q: symbol(q, 0.5), grid.qaxis)
    assert line.values.dtype == dtype


def test_sample_nonfinite_rejected():
    grid = Grid2D(Grid1D(-1, 1, 4), Grid1D(-1, 1, 4))
    with pytest.raises(SampleError, match="q"):
        sample(lambda q, p: 1.0 / (q - 0.25), grid)


# ------------------------------------------------------------ quadrature

def test_quadrature_zero():
    grid = Grid1D(-1.0, 1.0, 16)
    assert quadrature(sample(lambda q: np.zeros_like(q), grid)) == 0.0


def test_quadrature_gaussian_1d():
    # oracle: int e^{-q^2/2} dq = sqrt(2 pi)
    grid = Grid1D(-12.0, 12.0, 1024)
    val = quadrature(sample(lambda q: np.exp(-q**2 / 2.0), grid))
    assert abs(val.real - np.sqrt(2 * np.pi)) / np.sqrt(2 * np.pi) < 1e-10


def test_quadrature_gaussian_2d_squared(box16):
    # oracle: int |2 e^{-q^2/2} e^{-p^2/2}|^2 = 4 int e^{-q^2-p^2} = 4 pi
    f = sample(lambda q, p: (2 * np.exp(-q**2 / 2) * np.exp(-p**2 / 2)) ** 2, box16)
    val = quadrature(f)
    assert abs(val.real - 4 * np.pi) / (4 * np.pi) < 1e-8


def test_quadrature_second_order_convergence():
    # analytic non-decaying integrand: midpoint error must fall ~4x per halving
    exact = 2.0 * np.arctan(16.0)
    errs = []
    for n in (256, 512, 1024):
        val = quadrature(sample(lambda q: 1.0 / (1.0 + q**2), Grid1D(-16, 16, n)))
        errs.append(abs(val.real - exact))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


# ---------------------------------------------------------- fiber Fourier

def test_fourier_fiber_gaussian_pair(box16):
    f = sampled_gaussian(GaussianObservable(), box16)
    ft = fourier_fiber(f)
    qq, vv = ft.grid.meshes()
    # oracle: 1/(2 pi) int e^{ipv} e^{-p^2/2} dp = e^{-v^2/2}/sqrt(2 pi)
    exact = 2.0 * np.exp(-qq**2 / 2) * np.exp(-vv**2 / 2) / np.sqrt(2 * np.pi)
    assert np.max(np.abs(ft.values - exact)) < 1e-8


def test_fourier_fiber_rejects_no_decay(box16):
    f = sample(lambda q, p: np.exp(-q**2) * np.ones_like(p), box16)
    with pytest.raises(DecayError):
        fourier_fiber(f)


@settings(max_examples=60)
@given(n_q=st.integers(2, 64), n_p=st.integers(32, 300), half=st.floats(8.0, 16.0),
       centre=st.floats(-40.0, 40.0), shift=st.floats(-2.0, 2.0),
       alpha=st.floats(0.5, 2.0), beta=st.floats(0.5, 2.0))
@example(n_q=512, n_p=512, half=16.0, centre=0.0, shift=-0.4, alpha=1.2, beta=0.7)
@example(n_q=33, n_p=255, half=9.0, centre=-3.5, shift=1.0, alpha=1.0, beta=0.6)
@example(n_q=32, n_p=127, half=12.0, centre=17.25, shift=0.0, alpha=0.8, beta=1.5)
@example(n_q=17, n_p=256, half=8.0, centre=0.7, shift=-1.5, alpha=2.0, beta=0.9)
def test_fourier_fiber_round_trip(n_q, n_p, half, centre, shift, alpha, beta):
    # odd and even point counts on both axes, p-boxes off the origin; the
    # Gaussian sits at least 6 from the p-boundary, so no DecayError
    grid = Grid2D(Grid1D(-8.0, 8.0, n_q), Grid1D(centre - half, centre + half, n_p))
    obs = GaussianObservable(q0=0.3, p0=centre + shift, alpha=alpha, beta=beta)
    f = sampled_gaussian(obs, grid)
    back = inverse_fourier_fiber(fourier_fiber(f), grid.paxis)
    assert np.max(np.abs(back.values - f.values)) < 1e-10


def long_double_fiber_phase(paxis, sign):
    """``e^{sign i p_j v_k}`` in long double on the conjugate grid, the integer part
    of ``p_j v_k = p_c v_k + pi (j - c)(2k - n)/n`` (c the centre sample)
    reduced mod 2n exactly."""
    n, c = paxis.n, paxis.n // 2
    j = np.arange(n)
    pi = 4 * np.arctan(np.longdouble(1))
    v = (j - np.longdouble(n) / 2) * (2 * pi / (n * np.longdouble(paxis.delta)))
    m = ((j[:, None] - c) * (2 * j[None, :] - n)) % (2 * n)
    arg = sign * (np.longdouble(paxis.points[c]) * v[None, :] + pi * m / n)
    return np.cos(arg) + 1j * np.sin(arg), pi


@pytest.mark.parametrize("n", [384, 383])
def test_fourier_fiber_matches_exactly_reduced_long_double_sum(n):
    # |p v| reaches about 600 here: phases taken from the unreduced product
    # carry about 4e-14 relative error, the exactly reduced ones rounding only
    grid = Grid2D(Grid1D(-2.0, 2.0, 6), Grid1D(-12.0, 12.0, n))
    f = sampled_gaussian(GaussianObservable(0.2, -0.3, 1.0, 0.8), grid)
    ft = fourier_fiber(f)
    phase, pi = long_double_fiber_phase(grid.paxis, +1)
    want = f.values.astype(np.clongdouble) @ phase * (np.longdouble(grid.paxis.delta) / (2 * pi))
    assert np.max(np.abs(ft.values - want)) <= 5e-15 * np.max(np.abs(want))
    back = inverse_fourier_fiber(ft, grid.paxis)
    phase, _ = long_double_fiber_phase(grid.paxis, -1)
    want = ft.values.astype(np.clongdouble) @ phase.T * np.longdouble(ft.grid.paxis.delta)
    assert np.max(np.abs(back.values - want)) <= 5e-15 * np.max(np.abs(want))


def test_fourier_fiber_truncation_warning():
    # boundary decay in the warn band (below the hard wrap limit)
    grid = Grid2D(Grid1D(-16, 16, 256), Grid1D(-5.5, 5.5, 64))
    f = sampled_gaussian(GaussianObservable(), grid)
    ft = fourier_fiber(f)
    assert any("truncation" in w for w in ft.warnings)


# --------------------------------------------------------- Poisson bracket

def test_poisson_self_bracket_vanishes(box16):
    f = sampled_gaussian(GaussianObservable(q0=0.5, alpha=0.8), box16)
    pb = poisson_bracket(f, f)
    assert np.max(np.abs(pb.values)) < 1e-12 * f.sup_norm()


def test_poisson_windowed_coordinates(box16):
    f = sample(coordinate_field("q"), box16)
    g = sample(coordinate_field("p"), box16)
    pb = poisson_bracket(f, g)
    qq, pp = box16.meshes()
    interior = (np.abs(qq) < 2.0) & (np.abs(pp) < 2.0)
    assert np.max(np.abs(pb.values[interior] - 1.0)) < 1e-8


def test_poisson_vs_finite_difference_oracle():
    # 4th-order central differences on a fine grid are the independent oracle
    axis = Grid1D(-8.0, 8.0, 1024)
    grid = Grid2D(axis, axis)
    f = sampled_gaussian(GaussianObservable(0.5, 0.0, 1.0, 0.8), grid)
    g = sampled_gaussian(GaussianObservable(-0.3, 0.4, 0.7, 1.2), grid)
    pb = poisson_bracket(f, g)

    def fd4(vals, axis_i, d):
        return (
            -np.roll(vals, -2, axis_i) + 8 * np.roll(vals, -1, axis_i)
            - 8 * np.roll(vals, 1, axis_i) + np.roll(vals, 2, axis_i)
        ) / (12 * d)

    oracle = (
        fd4(f.values, 0, axis.delta) * fd4(g.values, 1, axis.delta)
        - fd4(f.values, 1, axis.delta) * fd4(g.values, 0, axis.delta)
    )
    assert np.max(np.abs(pb.values - oracle)[2:-2, 2:-2]) < 1e-6


def test_poisson_grid_mismatch(box16, box8):
    f = sampled_gaussian(GaussianObservable(), box16)
    g = sampled_gaussian(GaussianObservable(), box8)
    with pytest.raises(GridError):
        poisson_bracket(f, g)


def _mixture(grid, seed):
    obs = random_gaussians(seed, 3)
    fields = gaussian_field(obs[0]) + gaussian_field(obs[1]) * (0.5 + 0.25j) \
        + gaussian_field(obs[2]) * (-0.8)
    return sample(fields, grid)


def test_poisson_bilinear_antisymmetric(box16):
    f = _mixture(box16, 1)
    g = _mixture(box16, 2)
    h = _mixture(box16, 3)
    scale = max(f.sup_norm(), g.sup_norm(), h.sup_norm())
    fg = poisson_bracket(f, g)
    gf = poisson_bracket(g, f)
    assert np.max(np.abs(fg.values + gf.values)) < 1e-12 * scale**2
    lin = poisson_bracket(f.with_values(f.values + 2.0 * h.values), g)
    split = fg.values + 2.0 * poisson_bracket(h, g).values
    assert np.max(np.abs(lin.values - split)) < 1e-12 * scale**2


def test_poisson_leibniz(box16):
    f = _mixture(box16, 4)
    g = _mixture(box16, 5)
    h = _mixture(box16, 6)
    gh = g.with_values(g.values * h.values)
    lhs = poisson_bracket(f, gh).values
    rhs = poisson_bracket(f, g).values * h.values + g.values * poisson_bracket(f, h).values
    assert np.max(np.abs(lhs - rhs)) < 1e-8 * max(1.0, np.max(np.abs(lhs)))


def test_poisson_conjugation_compatibility(box16):
    # no truncation error, only rounding: the two FFT paths agree to eps
    f = _mixture(box16, 7)
    g = _mixture(box16, 8)
    lhs = np.conj(poisson_bracket(f, g).values)
    rhs = poisson_bracket(
        f.with_values(np.conj(f.values)), g.with_values(np.conj(g.values))
    ).values
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * max(1.0, np.max(np.abs(lhs)))
