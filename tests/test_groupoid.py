import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strictq.core import (
    Grid1D,
    Grid2D,
    GridError,
    SampledFunction,
    conjugate_grid,
    fourier_fiber,
    sample,
    shift_factors,
    trig_shift,
)
from strictq.gaussian import GaussianObservable
from strictq.groupoid import (
    GroupoidFunction,
    KernelFamily,
    TruncationError,
    canonical_family,
    deformed_convolve,
    fiber_hat,
    groupoid_involution,
    semidirect_rep,
    tangent_boundary_check,
    wm_correspondence,
)
from strictq.symbols import gaussian_field
from strictq.weyl import OperatorKernel, compose, op_norm, weyl_kernel

from conftest import sampled_gaussian

XAXIS = Grid1D(-8.0, 8.0, 192)
YAXIS = Grid1D(-8.0, 8.0, 192)
GRID = Grid2D(XAXIS, YAXIS)


def gauss2(x0, y0, a=1.0, b=1.0):
    return lambda x, y: np.exp(-(x - x0) ** 2 / (2 * a)) * np.exp(-(y - y0) ** 2 / (2 * b))


def gfun(sym, eps, grid=GRID):
    vals = sample(sym, grid).values
    return GroupoidFunction(grid=grid, values=vals, epsilon=eps)


# --------------------------------------------------------------- convolution

def test_convolve_eps0_fourier_multiplication_oracle():
    # at eps = 0 the convolution diagonalizes under the fiber transform
    f = gfun(gauss2(0.3, -0.2), 0.0)
    g = gfun(gauss2(-0.4, 0.5, 0.7, 1.2), 0.0)
    conv = deformed_convolve(f, g)
    sf = sample(lambda x, y: gauss2(0.3, -0.2)(x, y), GRID)
    sg = sample(lambda x, y: gauss2(-0.4, 0.5, 0.7, 1.2)(x, y), GRID)
    ft_f = fourier_fiber(sf)
    ft_g = fourier_fiber(sg)
    ft_conv = fourier_fiber(sample(lambda x, y: gauss2(0, 0)(x, y), GRID).with_values(conv.values))
    # int e^{ivy}(f*g) dy = (int e^{ivy} f)(int e^{ivy} g): one 2 pi from the measure
    oracle = 2.0 * np.pi * ft_f.values * ft_g.values
    assert np.max(np.abs(ft_conv.values - oracle)) < 1e-8


def test_convolve_associativity_against_double_quadrature():
    # oracle: direct double integral of the exact Gaussian callables
    eps = 0.3
    fs = gauss2(0.3, -0.2)
    gs = gauss2(-0.4, 0.5, 0.7, 1.2)
    hs = gauss2(0.1, 0.2, 1.1, 0.9)
    f = gfun(fs, eps)
    g = gfun(gs, eps)
    h = gfun(hs, eps)
    lhs = deformed_convolve(deformed_convolve(f, g), h)
    rhs = deformed_convolve(f, deformed_convolve(g, h))
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-5

    z = np.linspace(-8, 8, 256, endpoint=False) + 8.0 / 256
    Z1, Z2 = np.meshgrid(z, z, indexing="ij")
    dz = z[1] - z[0]
    for i, j in ((96, 96), (80, 120)):
        x, y = XAXIS.points[i], YAXIS.points[j]
        integrand = fs(x, Z1) * gs(x + eps * Z1, Z2) * hs(x + eps * (Z1 + Z2), y - Z1 - Z2)
        oracle = np.sum(integrand) * dz * dz
        assert abs(lhs.values[i, j] - oracle) < 1e-6


def test_convolve_noncommutative_for_positive_eps():
    eps = 0.3
    f = gfun(gauss2(0.3, -0.2), eps)
    g = gfun(gauss2(-0.4, 0.5, 0.7, 1.2), eps)
    gap = np.max(np.abs(deformed_convolve(f, g).values - deformed_convolve(g, f).values))
    assert gap > 1e-3


def test_convolve_shift_leaves_region():
    f = gfun(gauss2(0.0, 0.0), 2.5)
    with pytest.raises(TruncationError):
        deformed_convolve(f, f)


def test_convolve_requires_matching_eps():
    f = gfun(gauss2(0.0, 0.0), 0.25)
    g = gfun(gauss2(0.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        deformed_convolve(f, g)


def test_convolve_splits_even_n_nyquist_like_trig_shift():
    # g is the x-Nyquist mode of an even-n grid: the x-shift must split it by
    # cosine (CONVENTIONS["even_n_nyquist"]), so real inputs convolve to real
    # values; oracle: two trig_shift reads per z-sample
    xaxis, yaxis = Grid1D(-4.0, 4.0, 16), Grid1D(-4.0, 4.0, 32)
    grid = Grid2D(xaxis, yaxis)
    eps = 0.3
    x, y = np.meshgrid(xaxis.points, yaxis.points, indexing="ij")
    f = GroupoidFunction(grid=grid, values=np.exp(-x ** 2 - y ** 2), epsilon=eps)
    g = GroupoidFunction(grid=grid, values=(-1.0) ** np.arange(16)[:, None] * np.exp(-y ** 2),
                         epsilon=eps)
    oracle = sum(f.values[:, k, None] * trig_shift(trig_shift(g.values, 0, eps * zk, xaxis.delta),
                                                   1, -zk, yaxis.delta)
                 for k, zk in enumerate(yaxis.points)) * yaxis.delta
    assert np.max(np.abs(deformed_convolve(f, g).values - oracle)) <= 1e-12


# ------------------------------------------------------------ representation

def test_representation_property():
    for eps in (0.25, 0.5, 1.0):
        f = gfun(gauss2(0.3, -0.2), eps)
        g = gfun(gauss2(-0.4, 0.5, 0.7, 1.2), eps)
        pf = semidirect_rep(f)
        pg = semidirect_rep(g)
        pfg = semidirect_rep(deformed_convolve(f, g))
        diff = OperatorKernel(grid=pf.grid, matrix=pfg.matrix - compose(pf, pg).matrix,
                              hbar=eps)
        assert op_norm(diff) < 1e-5 * max(op_norm(pfg), 1.0)


def test_involution_represents_as_adjoint():
    eps = 0.5
    f = gfun(lambda x, y: gauss2(0.3, -0.2)(x, y) * np.exp(0.3j * y), eps)
    pf = semidirect_rep(f)
    pfs = semidirect_rep(groupoid_involution(f))
    assert np.max(np.abs(pfs.matrix - pf.matrix.conj().T)) < 1e-8


@pytest.mark.parametrize("n", [192, 191])
def test_involution_is_an_involution(n):
    grid = Grid2D(Grid1D(-8.0, 8.0, n), YAXIS)
    f = gfun(lambda x, y: gauss2(0.3, -0.2)(x, y) * np.exp(0.3j * y + 0.2j * x), 0.5, grid)
    ff = groupoid_involution(groupoid_involution(f))
    assert np.max(np.abs(ff.values - f.values)) < 1e-13 * np.max(np.abs(f.values))


@pytest.mark.parametrize("n", [384, 383])
def test_involution_on_fiber_hat_elements(n):
    # the element of wm_correspondence lives on the conjugate y-grid (points
    # (k - n/2) dy), whose reflection lands on the grid modulo the period; for
    # a real symbol it is self-adjoint, f* = f, since its kernel is Hermitian
    axis = Grid1D(-12.0, 12.0, n)
    f = sampled_gaussian(GaussianObservable(0.2, -0.3, 1.0, 0.8), Grid2D(axis, axis))
    for hbar in (1.0, 0.5, 0.25, 0.125):
        fhat = fiber_hat(f, hbar)
        scale = np.max(np.abs(fhat.values))
        star = groupoid_involution(fhat)
        assert np.max(np.abs(groupoid_involution(star).values - fhat.values)) < 1e-13 * scale
        assert np.max(np.abs(star.values - fhat.values)) < 1e-13 * scale
        assert star.warnings == ()


def test_involution_carries_wrapped_shear_warnings():
    grid = Grid2D(Grid1D(-12.0, 12.0, 128), Grid1D(-12.0, 12.0, 64))
    fhat = fiber_hat(sampled_gaussian(GaussianObservable(-1.0, 0.0, 2.0, 0.5), grid), 2.0)
    assert fhat.warnings
    assert groupoid_involution(fhat).warnings[:len(fhat.warnings)] == fhat.warnings


@pytest.mark.parametrize("n_y", [64, 63])
def test_involution_eps0_on_conjugate_grid(n_y):
    # at eps = 0 the involution is conj f(x, -y); -y_0 = +n dy/2 is y_0 one
    # period on, where the element has decayed
    yaxis = conjugate_grid(Grid1D(-12.0, 12.0, n_y))
    grid = Grid2D(XAXIS, yaxis)
    h = lambda x, y: gauss2(0.3, -0.2)(x, y) * np.exp(0.3j * y + 0.2j * x)
    f = gfun(h, 0.0, grid)
    x, y = grid.meshes()
    assert np.max(np.abs(groupoid_involution(f).values - np.conj(h(x, -y)))) < 1e-14


def test_involution_refuses_unreflectable_axis():
    grid = Grid2D(XAXIS, Grid1D(-8.0, 9.0, 192))
    with pytest.raises(GridError, match="reflection lands on the grid"):
        groupoid_involution(gfun(gauss2(0.0, 0.0), 0.5, grid))


def test_delta_like_function_is_near_identity():
    # unit-mass spike in y, a couple of cells wide so the grid resolves it
    eps = 0.5
    width = 0.15
    f = gfun(lambda x, y: np.exp(-y**2 / (2 * width**2)) / (width * np.sqrt(2 * np.pi)),
             eps)
    k = semidirect_rep(f)
    x = XAXIS.points
    psi = np.exp(-x**2 / 2)
    out = k.matrix @ psi * XAXIS.delta
    assert np.max(np.abs(out - psi)) < 5e-3


def test_semidirect_rejects_eps0():
    f = gfun(gauss2(0.0, 0.0), 0.0)
    with pytest.raises(ValueError, match="convolution family"):
        semidirect_rep(f)


# ----------------------------------------------------------- correspondence

@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_wm_correspondence(hbar):
    axis = Grid1D(-12.0, 12.0, 384)
    grid = Grid2D(axis, axis)
    f = sampled_gaussian(GaussianObservable(0.2, -0.3, 1.0, 0.8), grid)
    res = wm_correspondence(f, weyl_kernel(f, hbar, axis))
    assert res["defect"] <= 1e-5 * res["weyl_norm"]
    assert res["rep"].warnings == res["weyl"].warnings == ()


def test_wrapped_shear_warns():
    # the element of this Gaussian has not decayed where the shear hbar y/2
    # wraps the x-box at hbar = 2 (it differs from the exact symbol read by
    # 2.1e-7 there): the warning reaches wm_correspondence.  The involution
    # shears too and warns the same way
    grid = Grid2D(Grid1D(-12.0, 12.0, 128), Grid1D(-12.0, 12.0, 64))
    f = sampled_gaussian(GaussianObservable(-1.0, 0.0, 2.0, 0.5), grid)
    res = wm_correspondence(f, weyl_kernel(f, 2.0, grid.qaxis))
    wrapped = ("sheared content 2.08e-07 where the shift wraps the x-box",)
    assert res["fhat"].warnings == res["rep"].warnings == wrapped
    assert fiber_hat(f, 1.0).warnings == ()
    wide = gfun(gauss2(0.0, 0.0, 1.0, 16.0), 1.0)
    assert groupoid_involution(wide).warnings == (
        "sheared content 1.49e-01 where the shift wraps the x-box",)
    assert groupoid_involution(gfun(gauss2(0.0, 0.0, 1.0, 16.0), 0.1)).warnings == ()


def test_wm_correspondence_zero():
    axis = Grid1D(-12.0, 12.0, 256)
    grid = Grid2D(axis, axis)
    f = sample(gaussian_field(GaussianObservable()) * 0.0, grid)
    res = wm_correspondence(f, weyl_kernel(f, 0.5, axis))
    assert res["defect"] == 0.0


def test_wm_correspondence_needs_kernel_on_f_axis():
    axis = Grid1D(-12.0, 12.0, 128)
    f = sampled_gaussian(GaussianObservable(), Grid2D(axis, axis))
    with pytest.raises(GridError, match="position axis"):
        wm_correspondence(f, weyl_kernel(f, 0.5, Grid1D(-10.0, 10.0, 128)))


def test_wm_correspondence_grid_refinement_stable():
    defects = []
    for n in (256, 512):
        axis = Grid1D(-12.0, 12.0, n)
        grid = Grid2D(axis, axis)
        f = sampled_gaussian(GaussianObservable(0.2, -0.3, 1.0, 0.8), grid)
        defects.append(wm_correspondence(f, weyl_kernel(f, 0.5, axis))["defect"])
    assert defects[1] < 10 * max(defects[0], 1e-12)


# -------------------------------------------------------------- boundary

@pytest.fixture(scope="module")
def boundary_setup():
    axis = Grid1D(-12.0, 12.0, 384)
    grid = Grid2D(axis, axis)
    f = sampled_gaussian(GaussianObservable(0.2, -0.3, 1.0, 0.8), grid)
    fam = canonical_family(f, [1.0, 0.5, 0.25, 0.125])
    return grid, f, fam


def test_boundary_canonical_family(boundary_setup):
    _, _, fam = boundary_setup
    rep = tangent_boundary_check(fam)
    assert np.all(rep.defects <= 1e-6)
    # the raw (unscaled) sequence exposes the 1/hbar prefactor
    assert rep.raw[-1] > 1.0


def test_boundary_perturbed_family(boundary_setup):
    grid, f, fam = boundary_setup
    rng = np.random.default_rng(0)
    noise = rng.normal(size=fam.kernels[0].matrix.shape) * 0.05
    # a fixed perturbation in kernel units is hbar * noise in algebra units
    kernels = tuple(
        OperatorKernel(grid=k.grid, matrix=k.matrix + noise, hbar=h)
        for k, h in zip(fam.kernels, fam.hbars)
    )
    pert = KernelFamily(hbars=fam.hbars, kernels=kernels,
                        boundary_symbol=fam.boundary_symbol)
    rep = tangent_boundary_check(pert)
    ratios = rep.defects[:-1] / rep.defects[1:]
    assert np.all(rep.defects[:-1] > rep.defects[1:])
    assert np.all((ratios > 1.5) & (ratios < 2.5))  # decreasing like hbar


def test_boundary_violating_family(boundary_setup):
    grid, f, fam = boundary_setup
    g = sampled_gaussian(GaussianObservable(-0.5, 0.4, 0.6, 1.1), grid)
    bad = KernelFamily(
        hbars=fam.hbars,
        kernels=tuple(weyl_kernel(g, h, grid.qaxis) for h in fam.hbars),
        boundary_symbol=fam.boundary_symbol,
    )
    rep = tangent_boundary_check(bad)
    gap_ref = np.max(np.abs(fourier_fiber(f).values - fourier_fiber(g).values))
    assert np.all(rep.defects >= gap_ref / 2.0)


def test_family_validation():
    axis = Grid1D(-12.0, 12.0, 128)
    grid = Grid2D(axis, axis)
    f = sampled_gaussian(GaussianObservable(), grid)
    fam = canonical_family(f, [1.0, 0.5])
    with pytest.raises(ValueError):
        KernelFamily(hbars=np.array([0.5, 1.0]), kernels=fam.kernels,
                     boundary_symbol=fam.boundary_symbol)


def test_fiber_hat_matches_oracle_free_path():
    axis = Grid1D(-12.0, 12.0, 256)
    grid = Grid2D(axis, axis)
    f = sampled_gaussian(GaussianObservable(0.2, -0.3, 1.0, 0.8), grid)
    with_oracle = fiber_hat(f, 0.5)
    without = fiber_hat(f.with_values(f.values), 0.5)
    assert np.max(np.abs(with_oracle.values - without.values)) < 1e-8


def oracle_fiber_hat(f, hbar):
    """fiber_hat by the dense per-y loop: the symbol at x + hbar y/2 on the whole
    (n x n_p) grid, summed against e^{-i p y} dp/2pi, once per y of the conjugate grid."""
    paxis = f.grid.paxis
    x, p = f.grid.qaxis.points, paxis.points
    y = conjugate_grid(paxis).points
    out = np.empty((x.size, y.size), dtype=complex)
    for k, yk in enumerate(y):
        fm = np.asarray(f.symbol(x[:, None] + hbar * yk / 2.0, p[None, :]))
        out[:, k] = fm @ np.exp(-1j * p * yk) * (paxis.delta / (2.0 * np.pi))
    return out


@settings(max_examples=10)
@given(n=st.integers(128, 320), n_p=st.integers(64, 320), hbar=st.floats(0.1, 2.0),
       q0=st.floats(-0.5, 0.5), p0=st.floats(-0.5, 0.5), alpha=st.floats(0.5, 1.0),
       beta=st.floats(1.0, 2.0))
@example(n=384, n_p=384, hbar=2.0, q0=0.2, p0=-0.3, alpha=1.0, beta=0.8)
@example(n=255, n_p=64, hbar=2.0, q0=-0.5, p0=0.5, alpha=1.0, beta=1.0)
@example(n=256, n_p=128, hbar=0.1, q0=0.5, p0=0.0, alpha=0.5, beta=2.0)
def test_fiber_hat_matches_oracle(n, n_p, hbar, q0, p0, alpha, beta):
    # odd and even n, n_p != n, and shifts hbar y/2 that wrap the box at
    # hbar = 2.  The oracle reads the symbol outside the box where the pass
    # reads the periodic interpolant, so the observables are those whose
    # element has decayed (below 1e-14) wherever the shear wraps: the grids
    # contain the supports, as the module requires
    grid = Grid2D(Grid1D(-12.0, 12.0, n), Grid1D(-12.0, 12.0, n_p))
    f = sampled_gaussian(GaussianObservable(q0, p0, alpha, beta), grid)
    fh = fiber_hat(f, hbar)
    oracle = oracle_fiber_hat(f, hbar)
    assert fh.grid == Grid2D(grid.qaxis, conjugate_grid(grid.paxis)) and fh.epsilon == hbar
    assert np.max(np.abs(fh.values - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    # the symbol is not read: samples alone give the same element
    assert np.array_equal(fiber_hat(f.with_values(f.values), hbar).values, fh.values)


# ------------------------------------------- boundary check against the oracle

def oracle_boundary_check(family):
    """The boundary check by trigonometric interpolation of the kernel per fiber value.

    Per hbar one forward FFT of the kernel along each axis; per fiber
    value v the shift factors of ``trig_shift`` (``shift_factors``) at
    ``(+hbar v/2, -hbar v/2)``, one inverse FFT along the second axis and
    the first axis's inverse sum read on the diagonal only.  Returns
    (defects, raw, windows, notes): the reference for the check, which
    reads all fiber values of one hbar from one Fourier pass.
    """
    symbol = family.boundary_symbol
    qaxis, vaxis = symbol.grid.qaxis, symbol.grid.paxis
    v = vaxis.points
    n, dq = qaxis.n, qaxis.delta
    quarter = 0.25 * (qaxis.hi - qaxis.lo)
    # inverse DFT along the first axis, read at row i only: e^{2 pi i a i/n}/n
    a = np.arange(n)
    inverse = np.exp(2j * np.pi * (np.outer(a, a) % n) / n) / n
    defects, raws, windows, notes = [], [], [], []
    for hbar, kernel in zip(family.hbars, family.kernels):
        ok = np.abs(hbar * v / 2.0) <= quarter
        if not ok.all():
            notes.append(f"hbar={hbar:g}: fiber window clipped to |v| <= {2 * quarter / hbar:g}")
        spectrum = np.fft.fft(np.fft.fft(kernel.matrix, axis=0), axis=1)
        diag = np.empty((n, int(ok.sum())), dtype=complex)
        for col, vk in enumerate(v[ok]):
            shift = shift_factors(n, dq, [hbar * vk / 2.0, -hbar * vk / 2.0])
            rows = np.fft.ifft(spectrum * shift[:, 1], axis=1)
            diag[:, col] = np.einsum("a,ai,ai->i", shift[:, 0], inverse, rows)
        defects.append(np.max(np.abs(hbar * diag - symbol.values[:, ok])))
        raws.append(np.max(np.abs(diag - symbol.values[:, ok])))
        windows.append((float(v[ok].min()), float(v[ok].max())))
    return np.array(defects), np.array(raws), tuple(windows), tuple(notes)


@settings(max_examples=10)
@given(n=st.integers(64, 300), n_p=st.integers(64, 300), hbar=st.floats(0.3, 2.0),
       ratio=st.floats(0.2, 0.8), noise=st.sampled_from([0.0, 0.05]),
       seed=st.integers(0, 2**16))
@example(n=384, n_p=384, hbar=1.0, ratio=0.25, noise=0.05, seed=0)
@example(n=255, n_p=300, hbar=2.0, ratio=0.2, noise=0.05, seed=1)
@example(n=256, n_p=64, hbar=0.3, ratio=0.8, noise=0.0, seed=2)
def test_boundary_check_matches_oracle(n, n_p, hbar, ratio, noise, seed):
    # odd and even n, windows clipped at |hbar v/2| <= L/4 or not, Hermitian
    # kernels (noise 0) and non-Hermitian perturbations of them
    grid = Grid2D(Grid1D(-12.0, 12.0, n), Grid1D(-12.0, 12.0, n_p))
    f = sampled_gaussian(GaussianObservable(0.2, -0.3, 1.0, 0.8), grid)
    fam = canonical_family(f, [hbar, hbar * ratio])
    rng = np.random.default_rng(seed)
    perturbation = noise * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    kernels = tuple(OperatorKernel(grid=k.grid, matrix=k.matrix + perturbation, hbar=k.hbar)
                    for k in fam.kernels)
    family = KernelFamily(hbars=fam.hbars, kernels=kernels, boundary_symbol=fam.boundary_symbol)
    rep = tangent_boundary_check(family)
    defects, raws, windows, notes = oracle_boundary_check(family)
    for got, want in ((rep.defects, defects), (rep.raw, raws)):
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    assert rep.v_windows == windows
    assert rep.notes == notes


def test_boundary_no_window_raises():
    axis = Grid1D(-4.0, 4.0, 64)
    grid = Grid2D(axis, axis)
    f = sampled_gaussian(GaussianObservable(), grid)
    fam = canonical_family(f, [1.0])
    far = SampledFunction(grid=Grid2D(axis, Grid1D(50.0, 60.0, 64)),
                          values=fam.boundary_symbol.values)
    with pytest.raises(TruncationError, match="no representable fiber window"):
        tangent_boundary_check(KernelFamily(hbars=fam.hbars, kernels=fam.kernels,
                                            boundary_symbol=far))


def test_boundary_warnings_kept_once_with_first_hbar():
    axis = Grid1D(-12.0, 12.0, 128)
    grid = Grid2D(axis, axis)
    f = sampled_gaussian(GaussianObservable(), grid)
    fam = canonical_family(f, [1.0, 0.5, 0.25])
    messages = ((), ("band edge",), ("band edge", "decay"))
    kernels = tuple(OperatorKernel(grid=k.grid, matrix=k.matrix, hbar=k.hbar, warnings=w)
                    for k, w in zip(fam.kernels, messages))
    symbol = fam.boundary_symbol.with_values(fam.boundary_symbol.values,
                                             warnings=("truncation",))
    rep = tangent_boundary_check(KernelFamily(hbars=fam.hbars, kernels=kernels,
                                              boundary_symbol=symbol))
    assert rep.warnings == ("truncation (first at hbar=1)", "band edge (first at hbar=0.5)",
                            "decay (first at hbar=0.25)")
    assert tangent_boundary_check(fam).warnings == ()
