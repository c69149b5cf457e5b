"""The Weyl-Moyal quantization map, its kernel calculus, and the star product.

A phase-space function f with Schwartz-type decay is mapped, for every
``hbar > 0``, to the integral operator on the position grid with kernel::

    K(q, q') = 1/(2 pi hbar) \\int dp  e^{i p (q - q')/hbar}  f((q + q')/2, p)

The integral is evaluated by midpoint quadrature over the p-axis of f's
own grid, with the midpoint argument supplied by f's retained symbol
oracle (never by interpolation).  Because the kernel depends on (q, q')
only through the midpoint ``m = (q + q')/2`` and the separation
``d = q - q'``, and a midpoint grid has just ``2n - 1`` distinct values
of each, the build fills a (2n-1) x (2n-1) midpoint/separation table and
gathers the n x n kernel from its anti-diagonals.

Sampling limits.  The quadrature resolves the oscillation ``e^{ipd/hbar}``
only while the phase advances by at most pi per p-sample, i.e. for
separations ``|d| <= pi hbar / dp``.  Entries beyond that band alias, so
they are set to zero instead; for admissible symbols (fiber transform
band-limited within the p-grid's Nyquist range) the true kernel is below
tolerance there, and the build verifies this by inspecting the band
edge.  A second, hbar-dependent limit is fatal: once ``pi hbar / dp``
drops below the position spacing the aliased copies of the kernel
collide with the true diagonal and no usable operator remains, which
raises :class:`AliasingError` naming the smallest usable hbar.

Dequantization inverts the kernel map,

    f(q, p) = hbar \\int dv e^{-i p v} K(q + hbar v/2, q - hbar v/2),

reading the kernel along anti-diagonals at quarter-cell shifts from the
midpoint/separation chart :func:`_shifted_diagonals`, which the
tangent-boundary check of :mod:`strictq.groupoid` reads too; between
grid points the kernel is its trigonometric interpolant, with even-n
Nyquist modes split on both axes (``CONVENTIONS["even_n_nyquist"]``).
The momentum band resolved by the inverse transform is
``|p| <= pi hbar / dq``; values beyond it are zeroed with the same
band-edge check, and a target grid with no momentum inside the band
raises :class:`AliasingError`.

Both maps are discrete Fourier sums between two uniform grids (momentum
and separation), which :func:`_chirp_z` evaluates as Bluestein chirp-z
transforms (Rabiner, Schafer and Rader, 1969) in O(n^2 log n) instead
of a dense O(n^3) phase product:

* only the in-band outputs (separations ``|d| <= pi hbar / dp``,
  momenta ``|p| <= pi hbar / dq``) are transformed and written into
  their slice of a zero array;
* both grids are indexed by integers centred on the axes, and each
  chirp ``e^{+-i theta k^2/2}`` is evaluated directly from the exact
  integer square ``k^2``; the grid-offset phase and the quadrature
  weight ride on the pre- and post-chirps.  Against the dense product
  the kernels agree to about 1e-14 and the symbols to about 1e-13
  relative to their largest entry (``tests/test_weyl.py`` keeps the
  dense formulas as the oracle);
* the kernel build transforms the real and the imaginary part of the
  symbol samples (a zero part is skipped) at separations ``d >= 0`` only
  and mirrors them by conjugation, so ``Q(conj f) = Q(f)^H`` holds
  exactly: kernels of real symbols are exactly Hermitian, as the dense
  product made them, and :func:`op_norm` keeps choosing its Hermitian
  solver for their differences;
* rows are transformed in fixed blocks, so the padded spectra held at
  once stay small.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import eigvalsh
from scipy.fft import fft, fft2, ifft, next_fast_len
from scipy.linalg import svdvals

from .core import (
    DECAY_TOL,
    Grid1D,
    Grid2D,
    GridError,
    SampledFunction,
    boundary_decay,
)

__all__ = [
    "OperatorKernel",
    "WaveFunction",
    "AliasingError",
    "ContractError",
    "AccuracyError",
    "weyl_kernel",
    "apply",
    "hs_norm",
    "op_norm",
    "compose",
    "adjoint",
    "dequantize",
    "star_product",
    "hbar_floor",
]

#: Largest matrix size accepted by the dense singular-value/eigen solvers.
MAX_DENSE_N = 2048

#: Relative band-edge content above which kernels/symbols are flagged.
BAND_EDGE_TOL = 1e-8

# rows per chirp-z block: bounds the padded spectra held at once
_CZT_BLOCK = 64


class AliasingError(ValueError):
    """Raised when hbar is too small for the grids to resolve the kernel."""

    def __init__(self, message, hbar_min):
        super().__init__(message)
        self.hbar_min = hbar_min


class ContractError(ValueError):
    """Raised when a required ingredient (e.g. the symbol oracle) is missing."""


class AccuracyError(ValueError):
    """Raised when an interpolation/truncation residual exceeds tolerance."""


@dataclass(frozen=True)
class OperatorKernel:
    """Dense kernel matrix K(q_i, q_j) over a position grid, at fixed hbar."""

    grid: Grid1D
    matrix: np.ndarray
    hbar: float
    warnings: tuple = ()

    def __post_init__(self):
        n = self.grid.n
        if np.shape(self.matrix) != (n, n):
            raise GridError(
                f"kernel matrix shape {np.shape(self.matrix)} does not match grid n={n}"
            )
        if not self.hbar > 0:
            raise ValueError(f"need hbar > 0, got {self.hbar}")


@dataclass(frozen=True)
class WaveFunction:
    """Complex samples of a state on a position grid."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        if np.shape(self.values) != (self.grid.n,):
            raise GridError("wave function length does not match grid")

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.delta))


def hbar_floor(qgrid: Grid1D, paxis: Grid1D) -> float:
    """Smallest hbar for which the grids can still separate the kernel diagonal."""
    return qgrid.delta * paxis.delta / np.pi


def _midpoints(qgrid: Grid1D) -> np.ndarray:
    # the 2n-1 distinct values of (q_i + q_j)/2, spacing delta/2
    return qgrid.lo + (np.arange(2 * qgrid.n - 1) + 1.0) * (qgrid.delta / 2.0)


def _gather_table(table: np.ndarray, n: int) -> np.ndarray:
    i = np.arange(n)
    return table[i[:, None] + i[None, :], i[:, None] - i[None, :] + n - 1]


def weyl_kernel(f: SampledFunction, hbar: float, qgrid: Grid1D) -> OperatorKernel:
    """Quantize ``f`` into an integral kernel on ``qgrid`` at the given hbar."""
    if not isinstance(f.grid, Grid2D):
        raise GridError("weyl_kernel needs f on a 2-D (q, p) grid")
    if f.symbol is None:
        raise ContractError(
            "weyl_kernel needs the symbol oracle to evaluate at midpoints"
        )
    if not hbar > 0:
        raise ValueError(f"need hbar > 0, got {hbar}")
    paxis = f.grid.paxis
    n = qgrid.n
    dq, dp = qgrid.delta, paxis.delta

    floor = hbar_floor(qgrid, paxis)
    if hbar < floor:
        raise AliasingError(
            f"hbar={hbar:g} unresolved: the phase advances by more than pi per "
            f"p-sample already at one grid spacing; minimal usable hbar on these "
            f"grids is {floor:g}",
            hbar_min=floor,
        )

    warnings = []
    decay = boundary_decay(f.values, axis=1)
    if decay > DECAY_TOL:
        warnings.append(f"p-boundary decay {decay:.2e} above tolerance")

    mids = _midpoints(qgrid)
    p = paxis.points
    fmid = np.asarray(f.symbol(mids[:, None], p[None, :]), dtype=complex)

    # only separations inside the band carry a resolved phase; the rest of
    # the table stays zero
    seps = (np.arange(2 * n - 1) - (n - 1)) * dq
    band = np.pi * hbar / dp
    inside = np.abs(seps) <= band
    top = np.flatnonzero(inside)[-1] - (n - 1)
    table = np.zeros((2 * n - 1, 2 * n - 1), dtype=complex)
    block = table[:, n - 1 - top:n + top]
    # p_j = p_c + j dp and d_s = s dq with integer j, s centred on the axes
    c = paxis.n // 2
    j = np.arange(paxis.n) - c
    s = np.arange(top + 1)
    post = np.exp(1j * p[c] * dq / hbar * s) * (dp / (2.0 * np.pi * hbar))
    # the sum over a real row at -d is the conjugate of the sum at d: transform
    # d >= 0 of the real and imaginary parts and mirror, so Q(conj f) = Q(f)^H
    # holds exactly (kernels of real symbols are exactly Hermitian)
    right, left = block[:, top:], block[:, :top][:, ::-1]
    _chirp_z(fmid.real, dp * dq / hbar, j, s, 1.0, post, right)
    right[:, 0] = right[:, 0].real
    np.conjugate(right[:, 1:], out=left)
    if fmid.imag.any():
        half = np.empty_like(right)
        _chirp_z(fmid.imag, dp * dq / hbar, j, s, 1.0, post, half)
        half[:, 0] = half[:, 0].real
        right += 1j * half
        left += 1j * half[:, 1:].conj()

    if not inside.all():
        # the band was clipped: the true kernel must be negligible at the edge
        scale = np.max(np.abs(block))
        edge = np.max(np.abs(block[:, [0, -1]])) if scale > 0 else 0.0
        if scale > 0 and edge > BAND_EDGE_TOL * scale:
            warnings.append(
                f"kernel content {edge / scale:.2e} at the resolved-band edge "
                f"|q - q'| = {band:g}; refine the p-grid or use larger hbar"
            )

    return OperatorKernel(
        grid=qgrid, matrix=_gather_table(table, n), hbar=hbar, warnings=tuple(warnings)
    )


def _chirp_z(x, theta, j, s, pre, post, out):
    """Bluestein chirp-z transform of the rows of ``x``, written into ``out``.

    Computes ``out[r, b] = post[b] sum_a x[r, a] pre[a] e^{i theta j_a s_b}``
    for runs ``j`` and ``s`` of consecutive integers.  With
    ``j s = (j^2 + s^2 - (s - j)^2) / 2`` the sum is a convolution with
    the chirp ``e^{-i theta m^2 / 2}``, done by FFTs padded to at least
    ``len(j) + len(s) - 1``.  Every chirp is evaluated directly from an
    exact integer square (no powers of a rounded ratio), and the rows
    go through in blocks of ``_CZT_BLOCK``.
    """
    n_in, n_out = len(j), len(s)
    size = next_fast_len(n_in + n_out - 1)
    pre = pre * np.exp(0.5j * theta * (j * j))
    post = post * np.exp(0.5j * theta * (s * s))
    lags = np.arange(1 - n_in, n_out)
    lag = lags + (s[0] - j[0])
    chirp = np.zeros(size, dtype=complex)
    chirp[lags % size] = np.exp(-0.5j * theta * (lag * lag))
    spectrum = fft(chirp)
    for r in range(0, x.shape[0], _CZT_BLOCK):
        rows = slice(r, r + _CZT_BLOCK)
        conv = ifft(fft(x[rows] * pre, size, axis=1) * spectrum, axis=1)
        out[rows] = conv[:, :n_out] * post


def apply(kernel: OperatorKernel, psi: WaveFunction) -> WaveFunction:
    """Act on a state: ``(K psi)(q_i) = sum_j K[i, j] psi(q_j) dq``."""
    if kernel.grid != psi.grid:
        raise GridError("kernel and wave function live on different grids")
    return WaveFunction(grid=psi.grid, values=kernel.matrix @ psi.values * kernel.grid.delta)


def hs_norm(kernel: OperatorKernel) -> float:
    """Hilbert-Schmidt norm ``sqrt(sum |K_ij|^2 dq^2)``."""
    return float(np.sqrt(np.sum(np.abs(kernel.matrix) ** 2)) * kernel.grid.delta)


def op_norm(kernel: OperatorKernel) -> float:
    """Operator norm: largest singular value of ``matrix * dq``
    (``eigvalsh`` when the matrix is Hermitian to 1e-13)."""
    m = kernel.matrix
    n = m.shape[0]
    if n > MAX_DENSE_N:
        raise ValueError(f"dense norm limited to n <= {MAX_DENSE_N}, got {n}")
    scale = np.max(np.abs(m))
    if scale == 0.0:
        return 0.0
    if np.max(np.abs(m - m.conj().T)) <= 1e-13 * scale:
        return float(np.max(np.abs(eigvalsh(m)))) * kernel.grid.delta
    return float(svdvals(m)[0]) * kernel.grid.delta


def compose(a: OperatorKernel, b: OperatorKernel) -> OperatorKernel:
    """Operator product as discretized kernel convolution ``A @ B * dq``."""
    if a.grid != b.grid:
        raise GridError("compose needs kernels on the same grid")
    if a.hbar != b.hbar:
        raise ValueError(f"compose needs equal hbar, got {a.hbar} and {b.hbar}")
    return OperatorKernel(
        grid=a.grid,
        matrix=a.matrix @ b.matrix * a.grid.delta,
        hbar=a.hbar,
        warnings=tuple(dict.fromkeys(a.warnings + b.warnings)),
    )


def adjoint(kernel: OperatorKernel) -> OperatorKernel:
    """Conjugate transpose of the kernel matrix."""
    return replace(kernel, matrix=kernel.matrix.conj().T)


def _sum_difference_index(n: int) -> np.ndarray:
    """Where each 2-D Fourier coefficient lands in the (J, m) coefficient table.

    The coefficient at FFT indices (j1, j2), with integer wavenumbers
    (w1, w2), belongs to the diagonal frequency ``J = (j1 + j2) mod n``
    and the separation frequency ``m = w1 - w2`` in [-n, n], the table
    cell ``J (2n + 1) + m + n``.  For even n the Nyquist row and column
    are read at ``w = -n/2`` and again at ``w = +n/2``: after the n^2
    entries come the second readings of the column, the row and the
    corner.  The index addresses the real and imaginary parts,
    interleaved as in the float view of a complex array, so one
    ``bincount`` fills the table.
    """
    j = np.arange(n)
    w = j - n * (j >= (n + 1) // 2)
    cell = ((j[:, None] + j[None, :]) % n) * (2 * n + 1) + (w[:, None] - w[None, :] + n)
    if n % 2 == 0:
        h = n // 2
        cell = np.concatenate([cell.ravel(), cell[:, h] - n, cell[h] + n, cell[h, h:h + 1]])
    cell = cell.ravel()
    return np.stack([2 * cell, 2 * cell + 1], axis=-1).ravel()


def _coefficient_table(matrix: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
    """``E[i, m] = sum_J e^{2 pi i J i/n} C[J, m]``, C the 2-D Fourier
    coefficients of the matrix summed by (J, m), even-n Nyquist readings
    at half weight each (:func:`_sum_difference_index`).

    A function of its own so that the spectrum is freed before the
    chirp-z transforms allocate their blocks.
    """
    n = matrix.shape[0]
    spec = fft2(matrix, norm="forward")
    if n % 2 == 0:
        h = n // 2
        spec[:, h] *= 0.5
        spec[h] *= 0.5
        spec = np.concatenate([spec.ravel(), spec[:, h], spec[h], spec[h, h:h + 1]])
    table = np.bincount(_sum_difference_index(n) if index is None else index,
                        spec.ravel().view(np.float64), 2 * n * (2 * n + 1))
    return ifft(table.view(complex).reshape(n, 2 * n + 1), axis=0, norm="forward",
                overwrite_x=True)


def _shifted_diagonals(matrix: np.ndarray, dq: float, s0: float, ds: float,
                       t: np.ndarray, index: np.ndarray | None = None):
    """Diagonals of the interpolant of ``matrix`` shifted by (+s, -s), s = s0 + t ds.

    The midpoint/separation chart of a kernel: yields ``(rows, D[rows])``
    per block of ``_CZT_BLOCK`` grid points, ``D[i, b] = K(q_i + s_b,
    q_i - s_b)`` for the run of integers ``t``, with ``K`` the periodic
    trigonometric interpolant of the matrix
    (``CONVENTIONS["even_n_nyquist"]``).  With ``Kh = fft2(K)/n^2``,

        D(q_i, s) = sum_m E[i, m] e^{2 pi i m s/(n dq)},
        E[i, m]   = sum_J e^{2 pi i J i/n} C[J, m],
        C[J, m]   = sum_{j1 + j2 = J mod n, w1 - w2 = m} Kh[j1, j2],

    so the sum over J is one inverse FFT and the sum over m one chirp-z
    transform per block onto the run of s.  ``index`` is
    ``_sum_difference_index(n)``, for callers that build it once.
    """
    n = matrix.shape[0]
    kappa = 2.0 * np.pi / (n * dq)
    m = np.arange(-n, n + 1)
    pre = np.exp(1j * kappa * s0 * m)
    table = _coefficient_table(matrix, index)
    for r in range(0, n, _CZT_BLOCK):
        rows = slice(r, r + _CZT_BLOCK)
        out = np.empty((table[rows].shape[0], t.size), dtype=complex)
        _chirp_z(table[rows], kappa * ds, m, t, pre, 1.0, out)
        yield rows, out


def dequantize(kernel: OperatorKernel, pgrid: Grid2D | None = None) -> SampledFunction:
    """Recover the phase-space symbol of a kernel on a (q, p) grid.

    When no grid is given the symbol is sampled on the kernel's own
    position axis times a momentum axis covering the resolved band.  The
    momentum band resolved by the separation sampling is
    ``|p| <= pi hbar / dq``; beyond it the symbol is zeroed (admissible
    symbols have decayed there, which is verified at the band edge).
    """
    if pgrid is None:
        band = np.pi * kernel.hbar / kernel.grid.delta
        pgrid = Grid2D(kernel.grid, Grid1D(-band, band, kernel.grid.n))
    if pgrid.qaxis != kernel.grid:
        raise GridError("dequantize needs the kernel's own position axis")
    n = kernel.grid.n
    dq = kernel.grid.delta
    hbar = kernel.hbar
    p = pgrid.paxis.points
    band = np.pi * hbar / dq
    inside = np.abs(p) <= band
    if not inside.any():
        hbar_min = dq * np.min(np.abs(p)) / np.pi
        raise AliasingError(
            f"no momentum of the target grid lies in the resolved band |p| <= {band:g} "
            f"at hbar={hbar:g}; the smallest usable hbar for this grid is {hbar_min:g}",
            hbar_min=hbar_min,
        )

    # the chart at shifts u dq/4 gives separations u dq/2, u = -2(n-1)..2(n-1):
    # the interpolant's separation bandwidth reaches pi/dq, so without the
    # refinement the transform phase would alias for kernels with band-edge
    # content (e.g. the discrete identity); momenta p_c = p_r + c dp'
    m = 2 * (n - 1)
    sep = np.arange(-m, m + 1)
    cols = np.flatnonzero(inside)
    r = (cols[0] + cols[-1]) // 2
    c = cols - r
    dp = pgrid.paxis.delta
    pre = np.exp(-1j * p[r] * dq / (2.0 * hbar) * sep)
    values = np.zeros((n, pgrid.paxis.n), dtype=complex)
    block = values[:, cols[0]:cols[-1] + 1]
    # entries whose anti-diagonal leaves the matrix (|u| beyond ~4 mu_i) are zero
    mu = np.minimum(np.arange(n), n - 1 - np.arange(n))
    scale = 0.0
    for rows, a in _shifted_diagonals(kernel.matrix, dq, 0.0, dq / 4.0, sep):
        reach = 4 * mu[rows, None]
        a[(sep < -reach) | (sep > reach + 3)] = 0.0
        scale = max(scale, np.max(np.abs(a)))
        _chirp_z(a, -dq * dp / (2.0 * hbar), sep, c, pre, dq / 2.0, block[rows])

    # truncation residual: interior anti-diagonals must decay in separation
    # before leaving the matrix (rows near the box edge truncate early by
    # construction and carry no weight for decaying symbols)
    # the probe uses raw matrix samples (u = +-4 mu, no interpolation), so a
    # band-edge kernel like the discrete identity does not false-trigger
    if scale > 0.0:
        interior = mu >= n // 4
        i, w = np.arange(n)[interior], mu[interior]
        edge = max(
            np.abs(kernel.matrix[i - w, i + w]).max(),
            np.abs(kernel.matrix[i + w, i - w]).max(),
        )
        if edge > 1e-5 * scale:
            raise AccuracyError(
                f"kernel anti-diagonals truncated at relative magnitude {edge / scale:.2e}; "
                "enlarge the position box"
            )

    warnings = list(kernel.warnings)
    if not inside.all():
        vmax = np.max(np.abs(block))
        if vmax > 0 and np.max(np.abs(block[:, [0, -1]])) > BAND_EDGE_TOL * vmax:
            warnings.append(
                f"symbol content at the resolved momentum band edge |p| = {band:g}"
            )
    return SampledFunction(grid=pgrid, values=values, symbol=None, warnings=tuple(warnings))


def star_product(f: SampledFunction, g: SampledFunction, hbar: float) -> SampledFunction:
    """Deformed product: quantize both factors, compose, dequantize.

    Both functions must live on the same (q, p) grid and carry symbol
    oracles; the result is sampled on that grid.
    """
    if f.grid != g.grid:
        raise GridError("star_product needs both factors on the same grid")
    qgrid = f.grid.qaxis
    ka = weyl_kernel(f, hbar, qgrid)
    kb = weyl_kernel(g, hbar, qgrid)
    return dequantize(compose(ka, kb), f.grid)
