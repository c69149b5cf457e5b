import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.fft import next_fast_len

import strictq
from strictq import weyl
from strictq.cli import write_report
from strictq.core import Grid1D, Grid2D, quadrature, sample, trig_shift
from strictq.gaussian import GaussianObservable
from strictq.groupoid import canonical_family, tangent_boundary_check
from strictq.symbols import gaussian_field
from strictq.weyl import (
    AccuracyError,
    AliasingError,
    ContractError,
    OperatorKernel,
    WaveFunction,
    adjoint,
    apply,
    compose,
    dequantize,
    hbar_floor,
    hs_norm,
    op_norm,
    star_product,
    weyl_kernel,
)
from strictq.weyl import _Bluestein, _Chart, _chirp_z, _fast_len, _midpoints

from conftest import (chi_vector, coordinate_field, random_gaussians, sampled_gaussian,
                      spectral_derivative, window_field)


def identity_kernel(grid, hbar=1.0):
    return OperatorKernel(grid=grid, matrix=np.eye(grid.n) / grid.delta, hbar=hbar)


def projector_kernel(box, hbar=1.0, q0=0.4, p0=-0.3, alpha=0.7):
    """Gaussian at threshold alpha beta = (hbar/2)^2; chi has unit norm."""
    beta = (hbar / 2.0) ** 2 / alpha
    obs = GaussianObservable(q0=q0, p0=p0, alpha=alpha, beta=beta)
    f = sampled_gaussian(obs, box)
    return obs, weyl_kernel(f, hbar, box.qaxis)


# ------------------------------------------------------------- weyl_kernel

def test_kernel_matches_rank_one_closed_form(box16):
    hbar = 1.0
    obs, kernel = projector_kernel(box16, hbar)
    chi = chi_vector(obs, hbar, box16.qaxis).values
    exact = np.conj(chi)[:, None] * chi[None, :]
    assert np.max(np.abs(kernel.matrix - exact)) < 1e-8


def test_kernel_reality(box16):
    obs = GaussianObservable(0.2, 0.6, 1.1, 0.9)
    f = sampled_gaussian(obs, box16)
    fbar = sample(gaussian_field(obs).conj(), box16)
    ka = weyl_kernel(f, 0.7, box16.qaxis)
    kb = weyl_kernel(fbar, 0.7, box16.qaxis)
    assert np.max(np.abs(kb.matrix - ka.matrix.conj().T)) < 1e-12


def test_kernel_linearity(box16):
    obs = random_gaussians(11, 2)
    f = sampled_gaussian(obs[0], box16)
    g = sampled_gaussian(obs[1], box16)
    combo = sample(gaussian_field(obs[0]) * (2.0 - 1.0j) + gaussian_field(obs[1]) * 0.5,
                   box16)
    lhs = weyl_kernel(combo, 0.5, box16.qaxis).matrix
    rhs = (2.0 - 1.0j) * weyl_kernel(f, 0.5, box16.qaxis).matrix \
        + 0.5 * weyl_kernel(g, 0.5, box16.qaxis).matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_kernel_requires_oracle(box16):
    f = sampled_gaussian(GaussianObservable(), box16).with_values(
        sampled_gaussian(GaussianObservable(), box16).values
    )
    with pytest.raises(ContractError):
        weyl_kernel(f, 1.0, box16.qaxis)


def test_kernel_aliasing_guard(box16):
    f = sampled_gaussian(GaussianObservable(), box16)
    floor = hbar_floor(box16.qaxis, box16.paxis)
    with pytest.raises(AliasingError) as err:
        weyl_kernel(f, floor / 2.0, box16.qaxis)
    assert err.value.hbar_min == pytest.approx(floor)


def test_kernel_warns_on_q_box_truncation():
    # the default f of ``strictq axioms`` on its +-6 box: the edge rows and
    # columns of Q(f) hold 2.2e-6 of its largest entry at hbar = 1, 5.9e-9 at 1/2
    axis = Grid1D(-6.0, 6.0, 768)
    f = sampled_gaussian(GaussianObservable(0.4, -0.2, 0.7, 0.5), Grid2D(axis, axis))
    assert [weyl_kernel(f, hbar, axis).warnings for hbar in (1.0, 0.5)] == [
        ("kernel content 2.19e-06 at the edge of the q-box [-6, 6); widen the box",), ()]


# ------------------------------------------------------------------ apply

def test_apply_identity(box16):
    psi = WaveFunction(grid=box16.qaxis,
                       values=np.exp(-box16.qaxis.points**2 / 2).astype(complex))
    out = apply(identity_kernel(box16.qaxis), psi)
    assert_allclose(out.values, psi.values, atol=1e-14)


def test_apply_projector_scales_by_norm(box16):
    # oracle: ||chi||^2 = 2 sqrt(alpha beta)/hbar, exactly 1 at threshold
    hbar = 1.0
    obs, kernel = projector_kernel(box16, hbar, p0=0.0)
    chi = chi_vector(obs, hbar, box16.qaxis)
    norm_sq = 2.0 * np.sqrt(obs.alpha * obs.beta) / hbar
    out = apply(kernel, chi)
    assert np.max(np.abs(out.values - norm_sq * chi.values)) < 1e-6


def test_apply_zero_kernel(box16):
    zero = OperatorKernel(grid=box16.qaxis,
                          matrix=np.zeros((box16.qaxis.n, box16.qaxis.n)), hbar=1.0)
    psi = WaveFunction(grid=box16.qaxis,
                       values=np.ones(box16.qaxis.n, dtype=complex))
    assert np.all(apply(zero, psi).values == 0.0)


# ---------------------------------------------------------------- hs_norm

def test_hs_identity_standard_gaussian(box16):
    # oracle: (1/2 pi hbar) int |f|^2 = (1/2 pi) 4 pi = 2 for f = f^0_{1,1}, hbar=1
    f = sampled_gaussian(GaussianObservable(), box16)
    val = hs_norm(weyl_kernel(f, 1.0, box16.qaxis)) ** 2
    assert abs(val - 2.0) / 2.0 < 1e-4


def test_hs_zero(box16):
    zero = OperatorKernel(grid=box16.qaxis,
                          matrix=np.zeros((box16.qaxis.n, box16.qaxis.n)), hbar=1.0)
    assert hs_norm(zero) == 0.0


@pytest.mark.parametrize("seed", [3, 4])
def test_hs_identity_random(box16, seed):
    hbar = 0.5
    for obs in random_gaussians(seed, 3):
        f = sampled_gaussian(obs, box16)
        lhs = hs_norm(weyl_kernel(f, hbar, box16.qaxis)) ** 2
        rhs = quadrature(f.with_values(np.abs(f.values) ** 2)).real / (2 * np.pi * hbar)
        assert abs(lhs - rhs) / rhs < 1e-4


# ---------------------------------------------------------------- op_norm

def test_op_norm_projector(box16):
    _, kernel = projector_kernel(box16)
    assert abs(op_norm(kernel) - 1.0) < 1e-4


def test_op_norm_zero_and_dominance(box16):
    zero = OperatorKernel(grid=box16.qaxis,
                          matrix=np.zeros((box16.qaxis.n, box16.qaxis.n)), hbar=1.0)
    assert op_norm(zero) == 0.0
    for obs in random_gaussians(5, 3):
        k = weyl_kernel(sampled_gaussian(obs, box16), 0.5, box16.qaxis)
        assert op_norm(k) <= hs_norm(k) * (1 + 1e-12)


def test_op_norm_solver_choice(monkeypatch):
    # op_norm calls the module names eigvalsh and svdvals, which the benchmark
    # tracer hooks; the SVD is checked against scipy's, an independent build
    calls = {"eigvalsh": 0, "svdvals": 0}

    def counting(name):
        solver = getattr(weyl, name)

        def hooked(m):
            calls[name] += 1
            return solver(m)
        return hooked

    for name in calls:
        monkeypatch.setattr(weyl, name, counting(name))
    grid = Grid1D(-4.0, 4.0, 64)
    rng = np.random.default_rng(3)
    m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    hermitian = OperatorKernel(grid=grid, matrix=m + m.conj().T, hbar=1.0)
    general = OperatorKernel(grid=grid, matrix=m, hbar=1.0)

    op_norm(hermitian)
    assert calls == {"eigvalsh": 1, "svdvals": 0}
    got = op_norm(general)
    assert calls == {"eigvalsh": 1, "svdvals": 1}
    want = scipy.linalg.svdvals(m)[0] * grid.delta
    assert abs(got - want) <= 1e-13 * want


# ---------------------------------------------------------------- compose

def test_compose_identity(box16):
    _, kernel = projector_kernel(box16)
    out = compose(kernel, identity_kernel(box16.qaxis))
    assert np.max(np.abs(out.matrix - kernel.matrix)) < 1e-10


def test_compose_projector_idempotent(box16):
    _, kernel = projector_kernel(box16)
    out = compose(kernel, kernel)
    assert np.max(np.abs(out.matrix - kernel.matrix)) < 1e-4


def test_compose_adjoint_antihomomorphism(box16):
    obs = random_gaussians(6, 2)
    a = weyl_kernel(sampled_gaussian(obs[0], box16), 0.5, box16.qaxis)
    b = weyl_kernel(sampled_gaussian(obs[1], box16), 0.5, box16.qaxis)
    lhs = adjoint(compose(a, b)).matrix
    rhs = compose(adjoint(b), adjoint(a)).matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_compose_mismatch(box16, box8):
    _, ka = projector_kernel(box16)
    _, kb = projector_kernel(box8)
    with pytest.raises(Exception):
        compose(ka, kb)


# ---------------------------------------------------------------- adjoint

def test_adjoint_involutive_and_real_selfadjoint(box16):
    f = sampled_gaussian(GaussianObservable(0.1, -0.2, 1.3, 0.8), box16)
    k = weyl_kernel(f, 0.5, box16.qaxis)
    assert np.array_equal(adjoint(adjoint(k)).matrix, k.matrix)
    assert np.max(np.abs(k.matrix - adjoint(k).matrix)) < 1e-12


# -------------------------------------------------------------- dequantize

def test_dequantize_round_trip(box16):
    f = sampled_gaussian(GaussianObservable(0.3, -0.5, 1.0, 0.8), box16)
    k = weyl_kernel(f, 1.0, box16.qaxis)
    back = dequantize(k, box16)
    assert np.max(np.abs(back.values - f.values)) < 1e-5


def test_dequantize_identity_like_kernel(box16):
    # the quantized unit window acts as the identity on interior states;
    # its symbol must come back as the constant 1 there (the raw grid
    # delta has all its separation content at the band edge, where the
    # reconstruction is genuinely ambiguous, so "identity-like" means the
    # smooth window kernel)
    w = sample(window_field(half_width=6.0, edge=0.8), box16)
    sym = dequantize(weyl_kernel(w, 1.0, box16.qaxis), box16)
    qq, pp = box16.meshes()
    interior = (np.abs(qq) < 3.0) & (np.abs(pp) < 3.0)
    assert np.max(np.abs(sym.values[interior] - 1.0)) < 1e-6


def test_dequantize_adjoint_conjugation(box16):
    f = sampled_gaussian(GaussianObservable(0.3, 0.4, 0.9, 1.1), box16)
    k = weyl_kernel(f, 0.5, box16.qaxis)
    lhs = dequantize(adjoint(k), box16).values
    rhs = np.conj(dequantize(k, box16).values)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_dequantize_conjugates_adjoints_to_rounding():
    # anti-diagonals are cut where they leave the matrix on both sides of the
    # diagonal alike, so K^H dequantizes to the conjugate symbol and a
    # Hermitian kernel to a real one, also at hbar = 1, where the kernels
    # reach the box edge (an asymmetric cut left 1.5e-8 of the scale here)
    axis = Grid1D(-6.0, 6.0, 384)
    grid = Grid2D(axis, axis)
    ka = weyl_kernel(sampled_gaussian(GaussianObservable(0.4, -0.2, 0.7, 0.5), grid), 1.0, axis)
    kb = weyl_kernel(sampled_gaussian(GaussianObservable(-0.3, 0.3, 0.6, 0.55), grid), 1.0, axis)
    ab = compose(ka, kb)
    fg = dequantize(ab, grid).values
    scale = np.max(np.abs(fg))
    assert np.max(np.abs(dequantize(adjoint(ab), grid).values - np.conj(fg))) < 1e-14 * scale
    assert np.max(np.abs(dequantize(ka, grid).values.imag)) < 1e-14 * scale


def test_dequantize_no_momentum_in_band():
    # every target momentum lies beyond pi hbar / dq = 0.1676
    q = Grid1D(-6.0, 6.0, 64)
    kernel = OperatorKernel(grid=q, matrix=np.eye(64), hbar=0.01)
    target = Grid2D(q, Grid1D(5.0, 6.0, 16))
    with pytest.raises(AliasingError, match="resolved band") as err:
        dequantize(kernel, target)
    hbar_min = q.delta * np.min(np.abs(target.paxis.points)) / np.pi
    assert err.value.hbar_min == pytest.approx(hbar_min)
    usable = OperatorKernel(grid=q, matrix=np.eye(64), hbar=1.001 * hbar_min)
    assert dequantize(usable, target).values.shape == (64, 16)


def test_dequantize_default_grid(box16):
    _, k = projector_kernel(box16)
    sym = dequantize(k)
    assert sym.grid.qaxis == box16.qaxis
    assert sym.grid.paxis.n == box16.qaxis.n


# ------------------------------------------------------------ star product

def test_star_with_unit_window(box16):
    f = sampled_gaussian(GaussianObservable(0.2, -0.1, 0.8, 0.9), box16)
    w = sample(window_field(half_width=6.0, edge=1.0), box16)
    out = star_product(f, w, 0.5)
    qq, pp = box16.meshes()
    interior = (np.abs(qq) < 3.0) & (np.abs(pp) < 3.0)
    assert np.max(np.abs(out.values - f.values)[interior]) < 1e-5


def test_star_limits_shrink_along_schedule(box8):
    f = sampled_gaussian(GaussianObservable(0.4, 0.0, 0.8, 0.7), box8)
    g = sampled_gaussian(GaussianObservable(-0.3, 0.3, 0.9, 0.6), box8)
    prod = f.values * g.values
    gaps = []
    for hbar in (0.5, 0.25, 0.125):
        st = star_product(f, g, hbar)
        gaps.append(np.max(np.abs(st.values - prod)))
    assert gaps[0] > gaps[1] > gaps[2]


def test_star_associativity(box16):
    # the deformed product is operator composition in disguise, so the two
    # association orders are compared through the kernel route
    obs = random_gaussians(9, 3)
    f = sampled_gaussian(obs[0], box16)
    g = sampled_gaussian(obs[1], box16)
    h = sampled_gaussian(obs[2], box16)
    hbar = 0.5
    qgrid = box16.qaxis
    ka = weyl_kernel(f, hbar, qgrid)
    kb = weyl_kernel(g, hbar, qgrid)
    kc = weyl_kernel(h, hbar, qgrid)
    left = dequantize(compose(compose(ka, kb), kc), box16).values
    right = dequantize(compose(ka, compose(kb, kc)), box16).values
    scale = max(np.max(np.abs(left)), 1.0)
    assert np.max(np.abs(left - right)) < 1e-4 * scale


# ------------------------------------------------- position/momentum limit

def test_position_momentum_consistency(box16):
    hbar = 0.5
    qgrid = box16.qaxis
    q = qgrid.points
    psi = WaveFunction(grid=qgrid, values=np.exp(-q**2).astype(complex))
    interior = np.abs(q) < 1.5

    fq = sample(coordinate_field("q"), box16)
    kq = weyl_kernel(fq, hbar, qgrid)
    got = apply(kq, psi).values
    assert np.max(np.abs(got - q * psi.values)[interior]) < 1e-5

    fp = sample(coordinate_field("p"), box16)
    kp = weyl_kernel(fp, hbar, qgrid)
    got_p = apply(kp, psi).values
    want_p = -1j * hbar * spectral_derivative(psi.values, 0, qgrid.delta)
    assert np.max(np.abs(got_p - want_p)[interior]) < 1e-5


# --------------------------------------------- chirp-z against dense oracle

def test_fast_len_is_scipys_next_fast_len():
    # so every chirp-z transform pads to the length it had on scipy.fft
    assert [_fast_len(n) for n in range(1, 20001)] == [
        next_fast_len(n) for n in range(1, 20001)]


def oracle_gather_table(table, n):
    """``K[i, j] = table[i + j, i - j + n - 1]`` by two n x n fancy-index arrays."""
    i = np.arange(n)
    return table[i[:, None] + i[None, :], i[:, None] - i[None, :] + n - 1]


def table_gather_kernel(f, hbar, qgrid):
    """The kernel through the (2n-1) x (2n-1) midpoint/separation table.

    Row a of the table holds the midpoint (q_i + q_j)/2 with i + j = a; it
    is transformed onto the separations d >= 0 (the real part at d = 0),
    mirrored by conjugation onto d < 0 and gathered by fancy indexing.  A
    complex symbol is mirrored through the transform of its conjugate
    instead, and the entry at d = 0 is the mean of both transforms there.
    """
    paxis = f.grid.paxis
    n = qgrid.n
    dq, dp = qgrid.delta, paxis.delta
    p = paxis.points
    fmid = np.asarray(f.symbol(_midpoints(qgrid)[:, None], p[None, :]), dtype=complex)
    seps = (np.arange(2 * n - 1) - (n - 1)) * dq
    top = np.flatnonzero(np.abs(seps) <= np.pi * hbar / dp)[-1] - (n - 1)
    c = paxis.n // 2
    s = np.arange(top + 1)
    post = np.exp(1j * p[c] * dq / hbar * s) * (dp / (2.0 * np.pi * hbar))
    plan = _Bluestein(dp * dq / hbar, np.arange(paxis.n) - c, s, 1.0, post)
    table = np.zeros((2 * n - 1, 2 * n - 1), dtype=complex)
    right, left = table[:, n - 1:n + top], table[:, n - 1 - top:n - 1][:, ::-1]
    if not fmid.imag.any():
        _chirp_z(plan, fmid.real, right)
        right[:, 0] = right[:, 0].real
        np.conjugate(right[:, 1:], out=left)
    else:
        mirror = np.empty_like(right)
        _chirp_z(plan, fmid, right)
        _chirp_z(plan, fmid.conj(), mirror)
        np.conjugate(mirror, out=mirror)
        right[:, 0] = 0.5 * (right[:, 0] + mirror[:, 0])
        left[:] = mirror[:, 1:]
    return oracle_gather_table(table, n)


@pytest.mark.parametrize("n", [2, 7, 8, 193])
def test_gather_table_matches_fancy_index_oracle(n):
    # the kernel build writes each midpoint row straight onto its
    # anti-diagonal; entry for entry it is the table gather, at a band that
    # holds every separation, at a clipped band and at the aliasing floor,
    # for real and complex symbols
    qgrid = Grid1D(-6.0, 6.0, n)
    grid = Grid2D(qgrid, Grid1D(-5.0, 7.0, n + 5))
    floor = hbar_floor(qgrid, grid.paxis)
    field = gaussian_field(GaussianObservable(0.4, -0.2, 0.7, 0.5))
    for f in (sample(field, grid), sample(field * (1.0 - 0.5j), grid)):
        for hbar in (floor, 7.3 * floor, max(2.0, 3.0 * floor)):
            got = weyl_kernel(f, hbar, qgrid).matrix
            assert got.flags.c_contiguous and got.flags.writeable
            assert np.array_equal(got, table_gather_kernel(f, hbar, qgrid))


def dense_kernel_matrix(f, hbar, qgrid):
    """Kernel by one dense phase product over the (2n-1)-point tables."""
    paxis = f.grid.paxis
    n = qgrid.n
    dq, dp = qgrid.delta, paxis.delta
    mids = _midpoints(qgrid)
    p = paxis.points
    fmid = np.asarray(f.symbol(mids[:, None], p[None, :]), dtype=complex)
    seps = (np.arange(2 * n - 1) - (n - 1)) * dq
    inside = np.abs(seps) <= np.pi * hbar / dp
    phases = np.zeros((2 * n - 1, paxis.n), dtype=complex)
    phases[inside] = np.exp(1j * np.outer(seps[inside], p) / hbar)
    return oracle_gather_table(fmid @ phases.T * (dp / (2.0 * np.pi * hbar)), n)


def oracle_antidiagonal_table(kernel: OperatorKernel) -> np.ndarray:
    """Kernel in midpoint/separation coordinates, A[i, u] = K(q_i + u dq/4, q_i - u dq/4).

    Row i is the anti-diagonal through the grid point q_i, sampled at
    separations ``u dq/2`` for u = -2(n-1)..2(n-1).  The kernel's
    interpolant has separation bandwidth up to pi/dq (the sum of two
    position bandwidths over two), so the separation grid is refined to
    dq/2: off-lattice values come from quarter-cell FFT shifts of the
    whole matrix.  Without the refinement, multiplying by the transform
    phase would alias for kernels with band-edge content (e.g. the
    discrete identity).  Entries whose anti-diagonal leaves the matrix,
    |u| dq/4 > min(q_i - q_0, q_{n-1} - q_i), are zero on both sides of
    the diagonal alike.
    """
    n = kernel.grid.n
    dq = kernel.grid.delta
    shifted = {0: kernel.matrix}
    for c in (1, 2, 3):
        s = c * dq / 4.0
        shifted[c] = trig_shift(trig_shift(kernel.matrix, 0, +s, dq), 1, -s, dq)
    m = 2 * (n - 1)
    a = np.zeros((n, 2 * m + 1), dtype=complex)
    i = np.arange(n)
    mu = np.minimum(i, n - 1 - i)
    for u in range(-m, m + 1):
        c = u % 4
        w = (u - c) // 4
        ok = abs(u) <= 4 * mu
        a[i[ok], u + m] = shifted[c][i[ok] + w, i[ok] - w]
    return a


def dense_dequantize_values(kernel, pgrid):
    """Symbol samples by one dense phase product over the anti-diagonals."""
    n = kernel.grid.n
    dq = kernel.grid.delta
    hbar = kernel.hbar
    m = 2 * (n - 1)
    seps = (np.arange(2 * m + 1) - m) * (dq / 2.0)
    p = pgrid.paxis.points
    inside = np.abs(p) <= np.pi * hbar / dq
    phases = np.zeros((2 * m + 1, pgrid.paxis.n), dtype=complex)
    phases[:, inside] = np.exp(-1j * np.outer(seps, p[inside]) / hbar)
    return oracle_antidiagonal_table(kernel) @ phases * (dq / 2.0)


def relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


sizes = st.integers(64, 300)


@settings(max_examples=12)
@given(n=sizes, n_p=sizes, n_t=sizes, half=st.floats(6.0, 10.0),
       shift=st.floats(-1.0, 1.0), level=st.floats(0.05, 1.0),
       center=st.floats(-1.0, 1.0), widths=st.tuples(st.floats(0.5, 1.0), st.floats(0.5, 1.0)),
       imag=st.floats(-1.0, 1.0))
@example(n=300, n_p=257, n_t=300, half=8.0, shift=0.3, level=0.2, center=0.2,
         widths=(0.7, 0.9), imag=0.0)
@example(n=100, n_p=99, n_t=64, half=6.0, shift=1.0, level=0.0, center=0.0,
         widths=(1.0, 1.0), imag=0.5)
def test_transforms_match_dense_oracle(n, n_p, n_t, half, shift, level, center, widths,
                                       imag):
    # hbar runs log-uniformly from the aliasing floor to 1, so the kernel
    # band |q - q'| <= pi hbar / dp and the momentum band |p| <= pi hbar / dq
    # are clipped for most examples; the first explicit example has more
    # rows than one transform block in both maps and a real symbol, the
    # second sits at the floor, where the band holds the diagonal alone
    qgrid = Grid1D(-half, half, n)
    grid = Grid2D(qgrid, Grid1D(-half + shift, half + shift, n_p))
    floor = hbar_floor(qgrid, grid.paxis)
    hbar = floor ** (1.0 - level)
    obs = GaussianObservable(q0=center, p0=-center, alpha=widths[0], beta=widths[1])
    field = gaussian_field(obs) * (1.0 + 1j * imag)
    f = sample(field, grid)
    kernel = weyl_kernel(f, hbar, qgrid)
    assert relative_gap(kernel.matrix, dense_kernel_matrix(f, hbar, qgrid)) <= 1e-11
    adjoint_kernel = weyl_kernel(sample(field.conj(), grid), hbar, qgrid)
    assert np.array_equal(adjoint_kernel.matrix, kernel.matrix.conj().T)

    target = Grid2D(qgrid, Grid1D(-half - shift, half - shift, n_t))
    p = target.paxis.points
    if not np.any(np.abs(p) <= np.pi * hbar / qgrid.delta):
        with pytest.raises(AliasingError):
            dequantize(kernel, target)
        return
    back = dequantize(kernel, target)
    assert relative_gap(back.values, dense_dequantize_values(kernel, target)) <= 1e-11


@settings(max_examples=8)
@given(n=st.integers(200, 300), n_p=st.integers(150, 300), hbar=st.floats(0.25, 0.5),
       center=st.floats(-0.5, 0.5), widths=st.tuples(st.floats(0.5, 0.8), st.floats(0.5, 0.8)))
@example(n=255, n_p=255, hbar=0.25, center=0.3, widths=(0.8, 0.8))
@example(n=257, n_p=200, hbar=0.25, center=0.3, widths=(0.8, 0.8))
def test_round_trip_odd_and_non_square_grids(n, n_p, hbar, center, widths):
    # centres and widths keep the symbol below 1e-15 of its peak at the box
    # edge, so the gate measures the transforms, not the truncated tails
    qgrid = Grid1D(-8.0, 8.0, n)
    grid = Grid2D(qgrid, Grid1D(-8.0, 8.0, n_p))
    obs = GaussianObservable(q0=center, p0=-center, alpha=widths[0], beta=widths[1])
    f = sampled_gaussian(obs, grid)
    back = dequantize(weyl_kernel(f, hbar, qgrid), grid)
    assert np.max(np.abs(back.values - f.values)) <= 1e-11 * f.sup_norm()


def noise_kernel(n, hbar, width, seed):
    """Complex white noise under a Gaussian envelope on the box [-8, 8]:
    content up to the Nyquist modes of both axes, decayed at the box edge."""
    qgrid = Grid1D(-8.0, 8.0, n)
    q = qgrid.points
    rng = np.random.default_rng(seed)
    envelope = np.exp(-(q[:, None] ** 2 + q[None, :] ** 2) / (2.0 * width ** 2))
    noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return OperatorKernel(grid=qgrid, matrix=noise * envelope, hbar=hbar)


@settings(max_examples=10)
@given(n=sizes, n_t=sizes, hbar=st.floats(0.05, 1.0), width=st.floats(0.8, 1.5),
       shift=st.floats(-1.0, 1.0), seed=st.integers(0, 2**16))
@example(n=65, n_t=64, hbar=0.5, width=1.5, shift=0.0, seed=0)
@example(n=200, n_t=300, hbar=1.0, width=1.2, shift=0.5, seed=1)
@example(n=257, n_t=129, hbar=0.1, width=1.0, shift=-0.7, seed=2)
def test_dequantize_noise_matches_dense_oracle(n, n_t, hbar, width, shift, seed):
    # odd and even n (the even-n Nyquist row and column are split on both
    # axes, as the quarter-cell shifts of the oracle split them); n = 200
    # and 257 span several row blocks of the chart
    kernel = noise_kernel(n, hbar, width, seed)
    target = Grid2D(kernel.grid, Grid1D(-8.0 + shift, 8.0 + shift, n_t))
    back = dequantize(kernel, target)
    assert relative_gap(back.values, dense_dequantize_values(kernel, target)) <= 1e-11


def bincount_coefficient_table(matrix):
    """Oracle: the (J, m) table of :func:`weyl._coefficient_table` filled by one
    ``bincount`` over a prebuilt scatter index.

    The coefficient at FFT indices (j1, j2), wavenumbers (w1, w2), lands in
    cell ``J (2n + 1) + m + n`` with ``J = (j1 + j2) mod n`` and
    ``m = w1 - w2``; for even n the halved Nyquist column, row and corner are
    read a second time at ``w = +n/2``, after the n^2 entries.  The index
    addresses real and imaginary parts of the float view.
    """
    n = matrix.shape[0]
    j = np.arange(n)
    w = j - n * (j >= (n + 1) // 2)
    cell = ((j[:, None] + j[None, :]) % n) * (2 * n + 1) + (w[:, None] - w[None, :] + n)
    spec = np.fft.fft2(matrix, norm="forward")
    if n % 2 == 0:
        h = n // 2
        spec[:, h] *= 0.5
        spec[h] *= 0.5
        cell = np.concatenate([cell.ravel(), cell[:, h] - n, cell[h] + n, cell[h, h:h + 1]])
        spec = np.concatenate([spec.ravel(), spec[:, h], spec[h], spec[h, h:h + 1]])
    cell = cell.ravel()
    index = np.stack([2 * cell, 2 * cell + 1], axis=-1).ravel()
    table = np.bincount(index, spec.ravel().view(np.float64), 2 * n * (2 * n + 1))
    table = table.view(complex).reshape(n, 2 * n + 1)
    return np.fft.ifft(table, axis=0, norm="forward")


@pytest.mark.parametrize("n", [2, 3, 7, 8, 64, 65, 384])
def test_coefficient_table_matches_bincount_oracle(n):
    # the strided adds sum every cell in bincount's order, the even-n Nyquist
    # second readings last, so the tables agree bit for bit; the Nyquist row
    # and column carry content of their own
    rng = np.random.default_rng(n)
    matrix = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    matrix[n // 2] += 3.0 * (-1.0) ** np.arange(n)
    matrix[:, n // 2] -= 2.0j * (-1.0) ** np.arange(n)
    got = weyl._coefficient_table(matrix)
    assert np.array_equal(got.view(float), bincount_coefficient_table(matrix).view(float))


@pytest.mark.parametrize("n, ratio", [(256, "2.34e-02"), (255, "2.50e-02")])
def test_dequantize_truncated_kernel_raises(n, ratio):
    # the envelope has not decayed at the box edge, so the anti-diagonals of
    # the interior rows are cut off; the message is the one the quarter-cell
    # table gave for these kernels
    kernel = noise_kernel(n, 0.5, 3.0, 0)
    with pytest.raises(AccuracyError) as err:
        dequantize(kernel)
    assert str(err.value) == (f"kernel anti-diagonals truncated at relative magnitude {ratio}; "
                              "enlarge the position box")


# ------------------------------------------- trimmed shifts against full range

def full_range_dequantize(kernel, pgrid):
    """Dequantization that reads every row at all 4n - 3 quarter-cell shifts.

    The chart is read over the whole run |u| <= 2(n-1) for every row, the
    shifts whose anti-diagonal leaves the matrix (|u| > 4 mu_i) are zeroed
    and all of them go to the momentum transform; the truncation probe and
    the band-edge warning are those of :func:`dequantize`.
    """
    n = kernel.grid.n
    dq = kernel.grid.delta
    hbar = kernel.hbar
    p = pgrid.paxis.points
    band = np.pi * hbar / dq
    inside = np.abs(p) <= band
    m = 2 * (n - 1)
    sep = np.arange(-m, m + 1)
    cols = np.flatnonzero(inside)
    r = (cols[0] + cols[-1]) // 2
    pre = np.exp(-1j * p[r] * dq / (2.0 * hbar) * sep)
    values = np.zeros((n, pgrid.paxis.n), dtype=complex)
    block = values[:, cols[0]:cols[-1] + 1]
    mu = np.minimum(np.arange(n), n - 1 - np.arange(n))
    a = _Chart(kernel.matrix, dq).diagonals(0.0, dq / 4.0, sep)
    a[np.abs(sep) > 4 * mu[:, None]] = 0.0
    scale = np.max(np.abs(a))
    to_momenta = _Bluestein(-dq * pgrid.paxis.delta / (2.0 * hbar), sep, cols - r, pre, dq / 2.0)
    _chirp_z(to_momenta, a, block)
    if scale > 0.0:
        interior = mu >= n // 4
        i, w = np.arange(n)[interior], mu[interior]
        edge = max(np.abs(kernel.matrix[i - w, i + w]).max(),
                   np.abs(kernel.matrix[i + w, i - w]).max())
        if edge > 1e-5 * scale:
            raise AccuracyError(
                f"kernel anti-diagonals truncated at relative magnitude {edge / scale:.2e}; "
                "enlarge the position box"
            )
    warnings = list(kernel.warnings)
    if not inside.all():
        vmax = np.max(np.abs(block))
        if vmax > 0 and np.max(np.abs(block[:, [0, -1]])) > weyl.BAND_EDGE_TOL * vmax:
            warnings.append(f"symbol content at the resolved momentum band edge |p| = {band:g}")
    return values, tuple(warnings)


def outcome(fn, *args):
    """``("ok", result)`` or ``("raised", type, message)``."""
    try:
        return "ok", fn(*args)
    except (AccuracyError, AliasingError) as err:
        return "raised", type(err), str(err)


@settings(max_examples=14)
@given(n=st.integers(64, 260), n_p=st.integers(64, 260), half=st.floats(5.0, 9.0),
       level=st.floats(0.0, 1.0), center=st.floats(-1.0, 1.0),
       widths=st.tuples(st.floats(0.4, 1.2), st.floats(0.4, 1.2)))
@example(n=200, n_p=129, half=6.0, level=1.0, center=0.4, widths=(0.7, 0.5))
@example(n=201, n_p=200, half=6.0, level=0.5, center=-0.3, widths=(0.6, 0.55))
@example(n=129, n_p=64, half=8.0, level=0.0, center=0.0, widths=(1.0, 1.0))
def test_trimmed_dequantize_matches_full_range(n, n_p, half, level, center, widths):
    # hbar runs log-uniformly from the aliasing floor to 2; at the top the
    # kernels reach the box edge, where both paths must refuse alike
    if n_p == n:
        n_p += 1
    qgrid = Grid1D(-half, half, n)
    grid = Grid2D(qgrid, Grid1D(-half, half, n_p))
    floor = hbar_floor(qgrid, grid.paxis)
    hbar = floor * (2.0 / floor) ** level
    obs = GaussianObservable(q0=center, p0=-center, alpha=widths[0], beta=widths[1])
    kernel = weyl_kernel(sampled_gaussian(obs, grid), hbar, qgrid)
    got = outcome(dequantize, kernel, grid)
    want = outcome(full_range_dequantize, kernel, grid)
    if want[0] == "raised":
        assert got == want
        return
    assert got[0] == "ok"
    values, warnings = want[1]
    assert np.max(np.abs(got[1].values - values)) <= 1e-13 * np.max(np.abs(values))
    assert got[1].warnings == warnings


@pytest.mark.parametrize("n", [256, 255])
def test_trimmed_dequantize_refuses_truncated_kernels_alike(n):
    kernel = noise_kernel(n, 0.5, 3.0, 0)
    got = outcome(dequantize, kernel, Grid2D(kernel.grid, kernel.grid))
    assert got[0] == "raised"
    assert got == outcome(full_range_dequantize, kernel, Grid2D(kernel.grid, kernel.grid))


# ------------------------------------------------------------------ lanes

def lane_outputs(n):
    axis = Grid1D(-6.0, 6.0, n)
    grid = Grid2D(axis, axis)
    f = sampled_gaussian(GaussianObservable(0.4, -0.2, 0.7, 0.5), grid)
    kf = weyl_kernel(f, 1.0, axis)
    kg = weyl_kernel(sample(gaussian_field(GaussianObservable(-0.3, 0.3, 0.6, 0.55)) * (1.0 + 0.5j),
                            grid), 1.0, axis)
    boundary = tangent_boundary_check(canonical_family(f, [1.0, 0.5]))
    rng = np.random.default_rng(n)
    x = rng.standard_normal((2 * n - 1, n + 3)) + 1j * rng.standard_normal((2 * n - 1, n + 3))
    plan = _Bluestein(0.01, np.arange(-n, 3), np.arange(n // 2), np.exp(0.1j * np.arange(n + 3)),
                      0.5)
    direct = []
    for rows in (1, 31, 33, 63, 65, 2 * n - 1):
        out = np.empty((rows, plan.n_out), dtype=complex)
        _chirp_z(plan, x[:rows], out)
        direct.append(out)
    return [kf.matrix, kg.matrix, dequantize(compose(kf, kg), grid).values,
            boundary.defects, boundary.raw, *direct]


@pytest.mark.parametrize("n", [160, 161])
def test_results_independent_of_lane_count(monkeypatch, n):
    # every row block goes through the same arithmetic on whichever lane
    # takes it, and each block exactly once (3 lanes on a short switch
    # interval); the helper threads run no strictq code but the transforms
    calls = set()

    def profile(frame, event, arg):
        if event == "call" and "strictq" in frame.f_code.co_filename:
            calls.add((os.path.basename(frame.f_code.co_filename), frame.f_code.co_name))

    outputs = {}
    interval = sys.getswitchinterval()
    threading.setprofile(profile)
    sys.setswitchinterval(1e-5)
    try:
        for lanes in (1, 2, 3):
            monkeypatch.setattr(weyl, "_LANES", lanes)
            outputs[lanes] = lane_outputs(n)
    finally:
        sys.setswitchinterval(interval)
        threading.setprofile(None)
    for lanes in (2, 3):
        assert all(np.array_equal(a, b) for a, b in zip(outputs[1], outputs[lanes]))
    assert ("weyl.py", "lane") in calls
    assert calls <= {("weyl.py", name) for name in
                     ("lane", "<lambda>", "build", "transform", "__call__", "_scatter")}


def test_one_lane_runs_inline(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("one lane must not start helper threads")

    monkeypatch.setattr(weyl, "_LANES", 1)
    monkeypatch.setattr(weyl, "ThreadPoolExecutor", no_pool)
    axis = Grid1D(-6.0, 6.0, 96)
    f = sampled_gaussian(GaussianObservable(0.4, -0.2, 0.7, 0.5), Grid2D(axis, axis))
    dequantize(weyl_kernel(f, 1.0, axis))


def test_no_lane_thread_outlives_a_transform(monkeypatch):
    monkeypatch.setattr(weyl, "_LANES", 2)
    axis = Grid1D(-6.0, 6.0, 160)
    f = sampled_gaussian(GaussianObservable(0.4, -0.2, 0.7, 0.5), Grid2D(axis, axis))
    dequantize(weyl_kernel(f, 1.0, axis))
    assert [t.name for t in threading.enumerate() if t.name.startswith("strictq-lane")] == []


def test_lane_count_from_affinity_or_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert weyl._lane_count() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert weyl._lane_count() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert weyl._lane_count() == 1


_IMPORT_SCRIPT = """
import threading
import strictq.cli
from strictq import weyl
print(threading.active_count(), weyl._LANES)
"""


def test_import_starts_no_thread_and_ignores_thread_setting():
    # STRICTQ_THREADS is a setting of an earlier CLI pool; the lanes follow
    # the CPUs alone
    src = os.path.dirname(os.path.dirname(strictq.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, STRICTQ_THREADS="1")
    done = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.split() == ["1", str(weyl._lane_count())]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform has no fork")
def test_forked_child_builds_kernels(monkeypatch):
    # the child of a process whose lanes have run has none of their helper
    # threads; work queued for them would never run
    monkeypatch.setattr(weyl, "_LANES", 2)
    axis = Grid1D(-6.0, 6.0, 96)
    f = sampled_gaussian(GaussianObservable(0.4, -0.2, 0.7, 0.5), Grid2D(axis, axis))
    want = weyl_kernel(f, 1.0, axis).matrix
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(weyl_kernel(f, 1.0, axis).matrix, want) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its kernel within 60 s")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status) == 0


# ------------------------------------------------------- thread budget

needs_setter = pytest.mark.skipif(weyl._BLAS is None,
                                  reason="numpy's BLAS has no OpenBLAS thread setter")


def hermitian_kernel(n):
    a = np.random.default_rng(n).standard_normal((n, n))
    return OperatorKernel(grid=Grid1D(-6.0, 6.0, n), matrix=(a + a.T).astype(complex), hbar=1.0)


@needs_setter
def test_thread_budget_in_force_is_the_recorded_one(monkeypatch, tmp_path):
    # one BLAS thread, but for the solve of a wide op_norm, and the report
    # config names what was in force
    get = weyl._BLAS[1]
    assert get() == 1
    seen = []

    def spy(m):
        seen.append((m.shape[0], get()))
        return np.linalg.eigvalsh(m)

    monkeypatch.setattr(weyl, "eigvalsh", spy)
    for n in (768, 384):
        op_norm(hermitian_kernel(n))
        assert get() == 1
    out = tmp_path / "r.json"
    write_report("budget", {}, [], [], str(out), "json")
    with open(out) as fh:
        threads = json.load(fh)["config"]["threads"]
    assert seen == [(768, threads["blas_wide"]), (384, 1)]
    assert threads == {"lanes": weyl._LANES, "blas": 1, "blas_wide": seen[0][1],
                       "wide_from_n": weyl.WIDE_FROM_N}
    assert weyl.WIDE_FROM_N == 768


_BUDGET_SCRIPT = """
import json
from strictq import weyl
print(json.dumps([weyl._BLAS[1](), weyl.thread_budget()]))
"""


@needs_setter
@pytest.mark.parametrize("setting", [None, "1"])
def test_import_sets_one_blas_thread_and_one_per_lane_for_wide_solves(setting):
    # a wide solve takes a BLAS thread per lane, but never more threads
    # than OpenBLAS was started with
    src = os.path.dirname(os.path.dirname(strictq.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    done = subprocess.run([sys.executable, "-c", _BUDGET_SCRIPT], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    lanes = weyl._lane_count()
    assert json.loads(done.stdout) == [1, {"lanes": lanes, "blas": 1,
                                           "blas_wide": lanes if setting is None else 1,
                                           "wide_from_n": 768}]


@needs_setter
def test_no_blas_spin_after_a_narrow_solve():
    # a multi-threaded OpenBLAS call leaves its helper spinning for about
    # 0.12 s of CPU; a narrow op_norm runs on one thread and leaves none.
    # The first sleep lets the spin of any earlier wide solve run out
    time.sleep(0.3)
    op_norm(hermitian_kernel(384))
    start = time.process_time()
    time.sleep(0.3)
    assert time.process_time() - start < 0.05


def test_without_openblas_threads_are_left_alone(monkeypatch):
    monkeypatch.setattr(weyl.glob, "glob", lambda pattern: [])
    assert weyl._openblas_threads() is None
    monkeypatch.setattr(weyl, "_BLAS", None)
    assert weyl.thread_budget() == {"lanes": weyl._LANES, "blas": None, "blas_wide": None,
                                    "wide_from_n": 768}
    kernel = hermitian_kernel(768)
    want = np.linalg.eigvalsh(kernel.matrix)
    assert op_norm(kernel) == float(np.max(np.abs(want))) * kernel.grid.delta


# ------------------------------------------------------- warning order

_MERGE_SCRIPT = """
import numpy as np
from strictq.core import Grid1D
from strictq.weyl import OperatorKernel, compose
q = Grid1D(-1.0, 1.0, 4)
a = OperatorKernel(grid=q, matrix=np.eye(4), hbar=1.0, warnings=("p-boundary decay",))
b = OperatorKernel(grid=q, matrix=np.eye(4), hbar=1.0,
                   warnings=("kernel content at the resolved-band edge", "p-boundary decay"))
print(compose(a, b).warnings)
"""


def test_warning_merge_order_independent_of_hash_seed():
    src = os.path.dirname(os.path.dirname(strictq.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = set()
    for seed in range(1, 5):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", _MERGE_SCRIPT], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        outputs.add(done.stdout)
    assert outputs == {
        "('p-boundary decay', 'kernel content at the resolved-band edge')\n"
    }
