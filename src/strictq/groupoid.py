"""Semidirect-product convolution and the tangent-groupoid boundary check.

The scaled translation action ``x -> x + eps y`` of the line on itself
deforms the fiberwise convolution algebra: for functions of (x, y),

    (f * g)(x, y) = \\int dz  f(x, z) g(x + eps z, y - z),

which at eps = 0 is ordinary convolution in y, slice by slice, and for
eps > 0 is represented on states by

    (pi(f) psi)(x) = \\int dy  f(x, y) psi(x + eps y)
                   = \\int dx' (1/eps) f(x, (x' - x)/eps) psi(x') ,

an integral kernel on the position grid.  At ``eps = hbar`` this kernel
is exactly the Weyl kernel of the phase-space function whose fiber
transform (with sign ``e^{-i p y}``) produced f; ``wm_correspondence``
measures the operator-norm gap between the two constructions.

The boundary check views a family of kernels together with a candidate
limit symbol ft(q, v) as one object and asks, for every scheduled hbar,
how far ``hbar * K(q + hbar v/2, q - hbar v/2)`` sits from ft(q, v); the
kernel at off-grid points is its trigonometric interpolant, which wraps
periodically, so fiber values with ``|hbar v/2|`` beyond a quarter of the
box are clipped out of the comparison.  The quantization maps carry a
1/hbar prefactor that the algebra-element statement of the continuity
condition does not, so the check multiplies by hbar (making the
canonical family pass identically) and reports the raw unmultiplied
sequence alongside.

Per hbar the shifted diagonals for the whole fiber window come from one
Fourier pass: a 2-D FFT of the kernel, whose coefficients are regrouped
by diagonal frequency (the sum of the two wavenumbers) and separation
frequency (their difference); one chirp-z transform (Bluestein) from the
separation frequencies onto the uniform run of shifts ``hbar v/2``; and
one inverse FFT along the diagonal, O(n^2 log n) per hbar in all.

Off-grid evaluation is everywhere the band-limited interpolant, so the
grids must contain the supports: convolution shifts must stay inside
the box (truncation error otherwise) and kernel separations beyond the
representable fiber window are zeroed, mirroring the kernel builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft2, ifft

from .core import (
    DECAY_TOL,
    Grid1D,
    Grid2D,
    GridError,
    SampledFunction,
    boundary_decay,
    conjugate_grid,
    record_warnings,
    tagged_warnings,
    trig_shift,
)
from .weyl import OperatorKernel, _chirp_z, op_norm, weyl_kernel

__all__ = [
    "GroupoidFunction",
    "KernelFamily",
    "TruncationError",
    "deformed_convolve",
    "groupoid_involution",
    "semidirect_rep",
    "wm_correspondence",
    "fiber_hat",
    "canonical_family",
    "tangent_boundary_check",
    "BoundaryReport",
]


class TruncationError(ValueError):
    """Raised when a shifted evaluation leaves the interpolation-valid region."""


@dataclass(frozen=True)
class GroupoidFunction:
    """Samples of a function on the (x, y) groupoid chart at deformation eps."""

    grid: Grid2D
    values: np.ndarray
    epsilon: float
    warnings: tuple = ()

    def __post_init__(self):
        shape = (self.grid.qaxis.n, self.grid.paxis.n)
        if np.shape(self.values) != shape:
            raise GridError(f"values shape {np.shape(self.values)} != grid {shape}")
        if self.epsilon < 0:
            raise ValueError(f"need epsilon >= 0, got {self.epsilon}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite groupoid function values")


def _check_match(f: GroupoidFunction, g: GroupoidFunction):
    if f.grid != g.grid:
        raise GridError("groupoid functions live on different grids")
    if f.epsilon != g.epsilon:
        raise ValueError(f"epsilon mismatch: {f.epsilon} vs {g.epsilon}")


def deformed_convolve(f: GroupoidFunction, g: GroupoidFunction) -> GroupoidFunction:
    """Deformed convolution ``(f * g)(x, y) = int dz f(x, z) g(x + eps z, y - z)``.

    g is evaluated at shifted points through its trigonometric
    interpolant.  The largest x-shift is eps * max|z|; if it exceeds
    half the x-extent the wrapped interpolant is meaningless and a
    :class:`TruncationError` is raised.
    """
    _check_match(f, g)
    xaxis, yaxis = f.grid.qaxis, f.grid.paxis
    eps = f.epsilon
    z = yaxis.points
    max_shift = abs(eps) * np.max(np.abs(z))
    if max_shift > 0.5 * (xaxis.hi - xaxis.lo):
        raise TruncationError(
            f"shift eps*z up to {max_shift:g} exceeds half the x-extent "
            f"{0.5 * (xaxis.hi - xaxis.lo):g}"
        )
    warnings = set(f.warnings) | set(g.warnings)
    for arr, name in ((f, "f"), (g, "g")):
        for ax_i, ax_name in ((0, "x"), (1, "y")):
            decay = boundary_decay(arr.values, ax_i)
            if decay > 1e-6:
                warnings.add(f"{name} has weak {ax_name}-boundary decay {decay:.1e}")

    gx = np.fft.fft(g.values, axis=0)
    kx = 2.0 * np.pi * np.fft.fftfreq(xaxis.n, d=xaxis.delta)[:, None]
    out = np.zeros_like(f.values, dtype=complex)
    for k, zk in enumerate(z):
        shifted = np.fft.ifft(gx * np.exp(1j * kx * (eps * zk)), axis=0)
        shifted = trig_shift(shifted, 1, -zk, yaxis.delta)
        out += f.values[:, k, None] * shifted
    out *= yaxis.delta
    return GroupoidFunction(grid=f.grid, values=out, epsilon=eps,
                            warnings=tuple(sorted(warnings)))


def groupoid_involution(f: GroupoidFunction) -> GroupoidFunction:
    """Involution ``f*(x, y) = conj f(x + eps y, -y)`` (symmetric y-axis)."""
    yaxis = f.grid.paxis
    if abs(yaxis.lo + yaxis.hi) > 1e-12 * (yaxis.hi - yaxis.lo):
        raise GridError("involution needs a y-axis symmetric about 0")
    y = yaxis.points
    out = np.empty_like(f.values, dtype=complex)
    gx = np.fft.fft(f.values, axis=0)
    kx = 2.0 * np.pi * np.fft.fftfreq(f.grid.qaxis.n, d=f.grid.qaxis.delta)[:, None]
    for j, yj in enumerate(y):
        shifted = np.fft.ifft(gx * np.exp(1j * kx * (f.epsilon * yj)), axis=0)
        out[:, j] = np.conj(shifted[:, len(y) - 1 - j])
    return GroupoidFunction(grid=f.grid, values=out, epsilon=f.epsilon,
                            warnings=f.warnings)


def semidirect_rep(f: GroupoidFunction) -> OperatorKernel:
    """Represent f as the integral kernel ``K(x, x') = (1/eps) f(x, (x'-x)/eps)``.

    Defined for eps > 0 only; the undeformed algebra is represented by
    the family of eps = 0 convolution representations instead, which a
    kernel on one position grid cannot express.
    """
    if f.epsilon == 0:
        raise ValueError(
            "eps = 0 has no single kernel representation; use the fiberwise "
            "convolution family instead"
        )
    eps = f.epsilon
    xaxis, yaxis = f.grid.qaxis, f.grid.paxis
    n = xaxis.n
    targets = (np.arange(2 * n - 1) - (n - 1)) * (xaxis.delta / eps)
    half_width = 0.5 * (yaxis.hi - yaxis.lo)
    inside = np.abs(targets) <= half_width

    spec = np.fft.fft(f.values, axis=1) / yaxis.n
    ky = 2.0 * np.pi * np.fft.fftfreq(yaxis.n, d=yaxis.delta)
    # midpoint grid: spectrum coefficients refer to e^{i k (y - y_0)} with
    # y_0 the first sample; evaluate the interpolant at absolute targets
    basis = np.zeros((yaxis.n, 2 * n - 1), dtype=complex)
    rel = targets[inside] - yaxis.points[0]
    phase = np.exp(1j * np.outer(ky, rel))
    if yaxis.n % 2 == 0:
        phase[yaxis.n // 2] = np.cos(ky[yaxis.n // 2] * rel)
    basis[:, inside] = phase
    table = spec @ basis  # (n_x, 2n-1) values f(x_i, targets_t)

    warnings = list(f.warnings)
    if not inside.all():
        scale = np.max(np.abs(table))
        edge_idx = np.flatnonzero(inside)
        edge = np.max(np.abs(table[:, edge_idx[[0, -1]]])) if scale > 0 else 0.0
        if scale > 0 and edge > 1e-8 * scale:
            warnings.append(
                f"fiber content {edge / scale:.2e} at the representable window edge"
            )

    i = np.arange(n)
    matrix = table[i[:, None], (i[None, :] - i[:, None]) + n - 1] / eps
    return OperatorKernel(grid=xaxis, matrix=matrix, hbar=eps,
                          warnings=tuple(warnings))


def fiber_hat(f: SampledFunction, hbar: float, ygrid: Grid1D | None = None) -> GroupoidFunction:
    """Groupoid element of a phase-space function: ``int dp/2pi e^{-ipy} f(x + hbar y/2, p)``."""
    if not isinstance(f.grid, Grid2D):
        raise GridError("fiber_hat needs a phase-space sampled function")
    paxis = f.grid.paxis
    yaxis = ygrid if ygrid is not None else conjugate_grid(paxis)
    x = f.grid.qaxis.points
    p = paxis.points
    y = yaxis.points
    out = np.empty((x.size, y.size), dtype=complex)
    if f.symbol is not None:
        for k, yk in enumerate(y):
            fm = np.asarray(f.symbol(x[:, None] + hbar * yk / 2.0, p[None, :]))
            out[:, k] = fm @ np.exp(-1j * p * yk) * (paxis.delta / (2.0 * np.pi))
    else:
        fx = np.fft.fft(f.values, axis=0)
        kx = 2.0 * np.pi * np.fft.fftfreq(x.size, d=f.grid.qaxis.delta)[:, None]
        for k, yk in enumerate(y):
            fm = np.fft.ifft(fx * np.exp(1j * kx * (hbar * yk / 2.0)), axis=0)
            out[:, k] = fm @ np.exp(-1j * p * yk) * (paxis.delta / (2.0 * np.pi))
    grid = Grid2D(qaxis=f.grid.qaxis, paxis=yaxis)
    return GroupoidFunction(grid=grid, values=out, epsilon=hbar, warnings=f.warnings)


def wm_correspondence(f: SampledFunction, hbar: float) -> dict:
    """Compare the semidirect representation of f-hat with the Weyl kernel.

    Returns the groupoid element, the operator-norm defect between the
    two kernel constructions, the Weyl kernel norm for scale, and the
    warnings of both kernels.
    """
    fhat = fiber_hat(f, hbar)
    rep = semidirect_rep(fhat)
    kw = weyl_kernel(f, hbar, f.grid.qaxis)
    diff = OperatorKernel(grid=kw.grid, matrix=rep.matrix - kw.matrix, hbar=hbar)
    return {"fhat": fhat, "defect": op_norm(diff), "weyl_norm": op_norm(kw),
            "warnings": tuple(dict.fromkeys(rep.warnings + kw.warnings))}


@dataclass(frozen=True)
class KernelFamily:
    """A candidate quantization family: kernels along hbars plus a limit symbol."""

    hbars: np.ndarray
    kernels: tuple
    boundary_symbol: SampledFunction

    def __post_init__(self):
        if len(self.hbars) != len(self.kernels):
            raise ValueError("hbars and kernels must align")
        if np.any(np.diff(self.hbars) >= 0):
            raise ValueError("hbars must be strictly decreasing")


def canonical_family(f: SampledFunction, hbars) -> KernelFamily:
    """The Weyl family of f together with its fiber transform as limit symbol."""
    from .core import fourier_fiber

    hbars = np.asarray(sorted(hbars, reverse=True), dtype=float)
    kernels = tuple(weyl_kernel(f, h, f.grid.qaxis) for h in hbars)
    return KernelFamily(hbars=hbars, kernels=kernels, boundary_symbol=fourier_fiber(f))


@dataclass(frozen=True)
class BoundaryReport:
    """Boundary-continuity defects, with and without the hbar prefactor."""

    hbars: np.ndarray
    defects: np.ndarray
    raw: np.ndarray
    v_windows: tuple
    notes: tuple = field(default_factory=tuple)
    warnings: tuple = ()


def _sum_difference_index(n: int) -> np.ndarray:
    """Where each 2-D Fourier coefficient lands in the (J, m) coefficient table.

    The coefficient at FFT indices (j1, j2), with integer wavenumbers
    (w1, w2), belongs to the diagonal frequency ``J = (j1 + j2) mod n``
    and the separation frequency ``m = w1 - w2`` in [-n, n], the table
    cell ``J (2n + 1) + m + n``.  For even n the Nyquist column is read
    at both ``w2 = -n/2`` and ``w2 = +n/2`` (the cosine split of
    :func:`trig_shift`): its second reading follows the n^2 entries.  The
    index addresses the real and imaginary parts, interleaved as in the
    float view of a complex array, so one ``bincount`` fills the table.
    """
    j = np.arange(n)
    w = j - n * (j >= (n + 1) // 2)
    cell = ((j[:, None] + j[None, :]) % n) * (2 * n + 1) + (w[:, None] - w[None, :] + n)
    if n % 2 == 0:
        cell = np.concatenate([cell.ravel(), cell[:, n // 2] - n])
    cell = cell.ravel()
    return np.stack([2 * cell, 2 * cell + 1], axis=-1).ravel()


def _coefficient_table(matrix: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``C[J, m]``: the 2-D Fourier coefficients of the matrix summed by (J, m).

    A function of its own so that the spectrum is freed before the
    chirp-z transform allocates its blocks.
    """
    n = matrix.shape[0]
    spec = fft2(matrix, norm="forward")
    if n % 2 == 0:
        spec[:, n // 2] *= 0.5
        spec = np.concatenate([spec.ravel(), spec[:, n // 2]])
    table = np.bincount(index, spec.ravel().view(np.float64), 2 * n * (2 * n + 1))
    return table.view(complex).reshape(n, 2 * n + 1)


def _shifted_diagonals(matrix: np.ndarray, index: np.ndarray, dq: float,
                       s0: float, ds: float, t: np.ndarray) -> np.ndarray:
    """Diagonals of the interpolant of ``matrix`` shifted by (+s, -s), s = s0 + t ds.

    Returns ``D[i, b] = K(q_i + s_b, q_i - s_b)`` for the run of integers
    ``t``, with ``K`` the periodic trigonometric interpolant of the
    matrix: a plain exponential shift along the rows and a
    Nyquist-symmetrized one along the columns, as :func:`trig_shift`
    applies them.  With ``Kh = fft2(K)/n^2``,

        D(q_i, s) = sum_J e^{2 pi i J i/n} sum_m C[J, m] e^{2 pi i m s/(n dq)},
        C[J, m]   = sum_{j1 + j2 = J mod n, w1 - w2 = m} Kh[j1, j2],

    so the sum over m is one chirp-z transform onto the run of s and the
    sum over J is one inverse FFT.
    """
    n = matrix.shape[0]
    kappa = 2.0 * np.pi / (n * dq)
    m = np.arange(-n, n + 1)
    out = np.empty((n, t.size), dtype=complex)
    _chirp_z(_coefficient_table(matrix, index), kappa * ds, m, t,
             np.exp(1j * kappa * s0 * m), 1.0, out)
    return ifft(out, axis=0, norm="forward", overwrite_x=True)


def tangent_boundary_check(family: KernelFamily) -> BoundaryReport:
    """Sup distance of ``hbar K(q + hbar v/2, q - hbar v/2)`` from the limit symbol.

    The kernel is evaluated off grid by its trigonometric interpolant,
    which wraps periodically; all fiber values of one hbar are read from
    one 2-D FFT of the kernel, one chirp-z transform across the fiber
    window and one inverse FFT (see :func:`_shifted_diagonals`).  Fiber
    values whose shift ``|hbar v/2|`` exceeds a quarter of the box would
    wrap around it and are clipped out of the comparison window, which is
    reported per hbar.  The warnings of the kernels and of the limit
    symbol are reported once each, tagged with the first hbar at which
    they were compared.
    """
    symbol = family.boundary_symbol
    if not isinstance(symbol.grid, Grid2D):
        raise GridError("boundary symbol must live on a (q, v) grid")
    qaxis, vaxis = symbol.grid.qaxis, symbol.grid.paxis
    v = vaxis.points
    quarter = 0.25 * (qaxis.hi - qaxis.lo)
    index = _sum_difference_index(qaxis.n)
    defects, raws, windows = [], [], []
    notes = []
    seen: dict = {}
    for hbar, kernel in zip(family.hbars, family.kernels):
        if kernel.grid != qaxis:
            raise GridError("family kernels must share the symbol's position axis")
        ok = np.abs(hbar * v / 2.0) <= quarter
        if not ok.any():
            raise TruncationError(f"no representable fiber window at hbar={hbar:g}")
        if not ok.all():
            notes.append(
                f"hbar={hbar:g}: fiber window clipped to |v| <= {2 * quarter / hbar:g}"
            )
        record_warnings(seen, hbar, kernel, symbol)
        # fiber values v_c + t dv, with integer t centred on the window
        cols = np.flatnonzero(ok)
        c = (cols[0] + cols[-1]) // 2
        diag = _shifted_diagonals(kernel.matrix, index, qaxis.delta, hbar * v[c] / 2.0,
                                  hbar * vaxis.delta / 2.0, cols - c)
        gap = np.abs(hbar * diag - symbol.values[:, ok])
        defects.append(float(np.max(gap)))
        raws.append(float(np.max(np.abs(diag - symbol.values[:, ok]))))
        windows.append((float(v[ok].min()), float(v[ok].max())))
    return BoundaryReport(
        hbars=np.asarray(family.hbars, dtype=float),
        defects=np.array(defects),
        raw=np.array(raws),
        v_windows=tuple(windows),
        notes=tuple(notes),
        warnings=tagged_warnings(seen),
    )
