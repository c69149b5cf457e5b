"""The Weyl-Moyal quantization map, its kernel calculus, and the star product.

A phase-space function f with Schwartz-type decay is mapped, for every
``hbar > 0``, to the integral operator on the position grid with kernel::

    K(q, q') = 1/(2 pi hbar) \\int dp  e^{i p (q - q')/hbar}  f((q + q')/2, p)

The integral is evaluated by midpoint quadrature over the p-axis of f's
own grid, with the midpoint argument supplied by f's retained symbol
oracle (never by interpolation).  Because the kernel depends on (q, q')
only through the midpoint ``m = (q + q')/2`` and the separation
``d = q - q'``, and a midpoint grid has just ``2n - 1`` distinct values
of each, the build transforms one row per midpoint, onto the separations
``d >= 0``, and writes each row straight onto its anti-diagonal
``i + j = a`` of the n x n kernel: the separations of the parity of a,
up to where the anti-diagonal leaves the matrix, are a strided slice of
the flattened kernel (stride n - 1), below the diagonal, and their
conjugate mirror another one above it.  No (2n-1) x (2n-1) table is held.

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
midpoint/separation chart :class:`_Chart`, which the tangent-boundary
check of :mod:`strictq.groupoid` reads too.  Each anti-diagonal is cut
where it leaves the matrix, on both sides of the diagonal alike, so the
symbol of K* is the conjugate of the symbol of K and Hermitian kernels
dequantize to real symbols.  Row i's anti-diagonal leaves the matrix at
shift |u| = 4 mu_i, mu_i the distance of q_i from the nearer box edge, so
each block of rows reads from the chart, and sends to the momentum
transform, only the shifts |u| <= 4 max mu over its rows: about half of
all 4n - 3 shifts, the rest being zero.  Between grid points
the kernel is its trigonometric interpolant, with even-n Nyquist modes
split on both axes (``CONVENTIONS["even_n_nyquist"]``).
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
* rows are transformed in blocks of ``_CZT_BLOCK`` rows, the tasks of
  the lanes.

Lanes.  The blocks of one transform run at the same time on a process-wide
set of lanes, one per CPU in the process's affinity set: the calling
thread and helper threads that are started on first use (importing starts
none, and a forked child starts its own).  A lane takes whole blocks: the
pre-chirp multiply, the padded FFT, the spectrum multiply, the inverse FFT
and the post-chirp write into the block's rows of the output (for the
kernel build, onto the rows' anti-diagonals), all inside a workspace that
the caller allocates once per transform.  The task height
is a constant and each block's arithmetic involves its own rows alone, so
every row is computed by the same operations whichever lane takes it and
however many lanes there are: results are bit-identical for every lane
count.  The kernel build, dequantization and the tangent-boundary check
all reach the lanes through :func:`_on_lanes`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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

# rows per chirp-z task: bounds the workspace of a lane, and fixed, so that
# every row goes through the same arithmetic whatever the lane count
_CZT_BLOCK = 64


def _lane_count() -> int:
    """CPUs this process may run on: its affinity set where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Chirp-z row blocks run on this many lanes at once, one per usable CPU.
_LANES = _lane_count()

# the helper threads of the lanes beyond the caller's own, as (count,
# executor): made on first use, so importing starts no thread, and dropped
# in a forked child, which has none of its parent's threads
_helpers = None
_helpers_lock = threading.Lock()


def _drop_helpers():
    global _helpers, _helpers_lock
    _helpers, _helpers_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helpers)


def _helper_pool(count: int) -> ThreadPoolExecutor:
    global _helpers
    with _helpers_lock:
        if _helpers is None or _helpers[0] != count:
            if _helpers is not None:
                _helpers[1].shutdown(wait=False)
            _helpers = (count, ThreadPoolExecutor(count, thread_name_prefix="strictq-lane"))
        return _helpers[1]


def _on_lanes(n_rows: int, width: int, task) -> None:
    """Run ``task(rows, work)`` once for every block of ``_CZT_BLOCK`` rows.

    The calling thread is one lane and ``_LANES - 1`` helper threads are
    the others; each lane takes the next untaken block until none is left.
    ``work`` is the lane's own workspace of ``_CZT_BLOCK * width`` complex
    entries.  All workspaces are allocated here, in the calling thread:
    large temporaries made on the helpers would stay with their threads'
    allocator arenas and raise the peak resident memory of the process.
    """
    starts = range(0, n_rows, _CZT_BLOCK)
    lanes = min(_LANES, len(starts))
    work = np.empty((lanes, _CZT_BLOCK * width), dtype=complex)
    todo = iter(starts)
    lock = threading.Lock()

    def lane(k):
        while True:
            with lock:
                r = next(todo, None)
            if r is None:
                return
            task(slice(r, r + _CZT_BLOCK), work[k])

    if lanes <= 1:
        lane(0)
        return
    helpers = [_helper_pool(_LANES - 1).submit(lane, k) for k in range(1, lanes)]
    try:
        lane(0)
    finally:
        wait(helpers)
    for done in helpers:
        done.result()


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
    # a real symbol stays real: its imaginary part is never transformed
    fmid = np.asarray(f.symbol(mids[:, None], p[None, :]))

    # only separations inside the band carry a resolved phase; the kernel
    # beyond it stays zero
    seps = (np.arange(2 * n - 1) - (n - 1)) * dq
    band = np.pi * hbar / dp
    inside = np.abs(seps) <= band
    top = np.flatnonzero(inside)[-1] - (n - 1)
    # p_j = p_c + j dp and d_s = s dq with integer j, s centred on the axes
    c = paxis.n // 2
    j = np.arange(paxis.n) - c
    s = np.arange(top + 1)
    post = np.exp(1j * p[c] * dq / hbar * s) * (dp / (2.0 * np.pi * hbar))
    plan = _Bluestein(dp * dq / hbar, j, s, 1.0, post)
    # the sum over a real row at -d is the conjugate of the sum at d: transform
    # d >= 0 of the real and imaginary parts and mirror, so Q(conj f) = Q(f)^H
    # holds exactly (kernels of real symbols are exactly Hermitian)
    parts = [fmid.real]
    if np.iscomplexobj(fmid) and fmid.imag.any():
        parts.append(fmid.imag)
    matrix = np.zeros((n, n), dtype=complex)
    # largest entry and largest band-edge entry of each block, over all its
    # separations |d| <= band
    peaks = np.zeros((-(-(2 * n - 1) // _CZT_BLOCK), 2))

    def build(rows, work):
        # rows are midpoints m_a = (q_i + q_j)/2, a = i + j; sums at d_s = (i - j) dq
        # for s >= 0 (at s = 0 the real part) go to the entry below the diagonal,
        # their mirror to the one above
        h = parts[0][rows].shape[0]
        below, above, half, turned = work[:4 * h * (top + 1)].reshape(4, h, top + 1)
        rest = work[below.size * 4:]
        plan(parts[0][rows], below, rest)
        below[:, 0] = below[:, 0].real
        np.conjugate(below, out=above)
        if len(parts) == 2:
            plan(parts[1][rows], half, rest)
            half[:, 0] = half[:, 0].real
            np.conjugate(half, out=turned)
            turned *= 1j
            above += turned
            half *= 1j
            below += half
        lower = np.abs(below, out=rest.view(float)[:below.size].reshape(below.shape))
        upper = np.abs(above[:, 1:], out=half.view(float)[:, :top])
        peaks[rows.start // _CZT_BLOCK] = (
            max(lower.max(), upper.max(initial=0.0)),
            max(lower[:, top].max(), upper[:, top - 1].max() if top else 0.0))
        _scatter(matrix.reshape(-1), rows.start, below, above, n)

    _on_lanes(2 * n - 1, plan.size + 4 * (top + 1), build)

    if not inside.all():
        # the band was clipped: the true kernel must be negligible at the edge
        scale, edge = peaks.max(axis=0)
        if scale > 0 and edge > BAND_EDGE_TOL * scale:
            warnings.append(
                f"kernel content {edge / scale:.2e} at the resolved-band edge "
                f"|q - q'| = {band:g}; refine the p-grid or use larger hbar"
            )

    return OperatorKernel(grid=qgrid, matrix=matrix, hbar=hbar, warnings=tuple(warnings))


def _scatter(flat, a0, below, above, n):
    """Write the midpoint rows ``a0, a0 + 1, ...`` into the kernel ``flat``.

    Row a holds the sums at separations s = 0, 1, ... (in grid steps); the
    grid entries on its anti-diagonal i + j = a are those with s of the
    parity of a and s <= min(a, 2n - 2 - a): ``K[(a + s)/2, (a - s)/2] =
    below[a, s]`` and, for s >= 1, ``K[(a - s)/2, (a + s)/2] = above[a, s]``.
    Along the anti-diagonal s steps by 2 and the flat index by n - 1.
    """
    top = below.shape[1] - 1
    step = n - 1
    for k in range(below.shape[0]):
        a = a0 + k
        lo = a & 1
        last = min(a, 2 * n - 2 - a, top)
        last -= (last - lo) & 1
        if last < lo:
            continue
        start = (a + lo) // 2 * n + (a - lo) // 2
        flat[start:start + (last - lo) // 2 * step + 1:step] = below[k, lo:last + 1:2]
        first = lo or 2
        if last >= first:
            start = (a - last) // 2 * n + (a + last) // 2
            flat[start:start + (last - first) // 2 * step + 1:step] = above[k, last:first - 1:-2]


class _Bluestein:
    """A Bluestein chirp-z transform between two runs of consecutive integers.

    ``plan(x, out, work)`` computes, for a block of rows,
    ``out[r, b] = post[b] sum_a x[r, a] pre[a] e^{i theta j_a s_b}``.
    With ``j s = (j^2 + s^2 - (s - j)^2) / 2`` the sum is a convolution
    with the chirp ``e^{-i theta m^2 / 2}``, done by FFTs padded to at
    least ``len(j) + len(s) - 1`` in ``work``, which must hold ``size``
    entries per row.  Every chirp is evaluated directly from an exact
    integer square (no powers of a rounded ratio), and the chirps and the
    spectrum of the convolution are computed once, here.
    """

    def __init__(self, theta, j, s, pre, post):
        self.n_in, self.n_out = len(j), len(s)
        self.size = next_fast_len(self.n_in + self.n_out - 1)
        self.pre = pre * np.exp(0.5j * theta * (j * j))
        self.post = post * np.exp(0.5j * theta * (s * s))
        lags = np.arange(1 - self.n_in, self.n_out)
        lag = lags + (s[0] - j[0])
        chirp = np.zeros(self.size, dtype=complex)
        chirp[lags % self.size] = np.exp(-0.5j * theta * (lag * lag))
        self.spectrum = fft(chirp)

    def __call__(self, x, out, work):
        conv = work[:x.shape[0] * self.size].reshape(x.shape[0], self.size)
        np.multiply(x, self.pre, out=conv[:, :self.n_in])
        conv[:, self.n_in:] = 0.0
        conv = fft(conv, axis=1, overwrite_x=True)
        conv *= self.spectrum
        conv = ifft(conv, axis=1, overwrite_x=True)
        np.multiply(conv[:, :self.n_out], self.post, out=out)


def _chirp_z(plan: _Bluestein, x, out) -> None:
    """Transform the rows of ``x`` into ``out`` by ``plan``, a block of rows per lane task."""
    _on_lanes(x.shape[0], plan.size, lambda rows, work: plan(x[rows], out[rows], work))


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


class _Chart:
    """The midpoint/separation chart of a kernel, the one reader of kernels off their grid.

    It reads the diagonals of the interpolant of ``matrix`` shifted by
    (+s, -s), ``D[i, b] = K(q_i + s_b, q_i - s_b)`` at ``s = s0 + t ds``
    for a run of integers ``t``, with ``K`` the periodic trigonometric
    interpolant of the matrix (``CONVENTIONS["even_n_nyquist"]``).  With
    ``Kh = fft2(K)/n^2``,

        D(q_i, s) = sum_m E[i, m] e^{2 pi i m s/(n dq)},
        E[i, m]   = sum_J e^{2 pi i J i/n} C[J, m],
        C[J, m]   = sum_{j1 + j2 = J mod n, w1 - w2 = m} Kh[j1, j2],

    so the sum over J is one inverse FFT, done once into ``table`` (E),
    and the sum over m one chirp-z transform of rows of the table onto
    the run of s (:meth:`plan`).  ``index`` is
    ``_sum_difference_index(n)``, for callers that build it once.
    """

    def __init__(self, matrix: np.ndarray, dq: float, index: np.ndarray | None = None):
        n = matrix.shape[0]
        self.kappa = 2.0 * np.pi / (n * dq)
        self.m = np.arange(-n, n + 1)
        self.table = _coefficient_table(matrix, index)

    def plan(self, s0: float, ds: float, t: np.ndarray) -> _Bluestein:
        """The transform from rows of ``table`` to the same rows of D on the run ``t``."""
        return _Bluestein(self.kappa * ds, self.m, t, np.exp(1j * self.kappa * s0 * self.m),
                          1.0)

    def diagonals(self, s0: float, ds: float, t: np.ndarray) -> np.ndarray:
        """D on the run ``t`` for every grid point, as an (n, len(t)) array."""
        out = np.empty((self.table.shape[0], t.size), dtype=complex)
        _chirp_z(self.plan(s0, ds, t), self.table, out)
        return out


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

    # the chart at shifts u dq/4 gives separations u dq/2, |u| <= 2(n-1):
    # the interpolant's separation bandwidth reaches pi/dq, so without the
    # refinement the transform phase would alias for kernels with band-edge
    # content (e.g. the discrete identity); momenta p_c = p_r + c dp'
    cols = np.flatnonzero(inside)
    r = (cols[0] + cols[-1]) // 2
    c = cols - r
    dp = pgrid.paxis.delta
    values = np.zeros((n, pgrid.paxis.n), dtype=complex)
    block = values[:, cols[0]:cols[-1] + 1]
    # the anti-diagonal of row i leaves the matrix at |u| = 4 mu_i; entries
    # beyond are zero, on both sides alike, so a Hermitian kernel dequantizes
    # to a real symbol.  So a block of rows reads, and transforms to momenta,
    # only the shifts |u| <= 4 max mu over its rows, a run that is the same
    # for every lane count
    mu = np.minimum(np.arange(n), n - 1 - np.arange(n))
    reach = 4 * mu
    chart = _Chart(kernel.matrix, dq)
    plans = {}
    for start in range(0, n, _CZT_BLOCK):
        u = int(reach[start:start + _CZT_BLOCK].max())
        if u not in plans:
            t = np.arange(-u, u + 1)
            plans[u] = (chart.plan(0.0, dq / 4.0, t),
                        _Bluestein(-dq * dp / (2.0 * hbar), t, c,
                                   np.exp(-1j * p[r] * dq / (2.0 * hbar) * t), dq / 2.0))
    peaks = np.zeros(-(-n // _CZT_BLOCK))

    def transform(rows, work):
        kept = reach[rows]
        u = int(kept.max())
        read, to_momenta = plans[u]
        a = work[:kept.size * (2 * u + 1)].reshape(kept.size, 2 * u + 1)
        rest = work[a.size:]
        read(chart.table[rows], a, rest)
        for k, w in enumerate(kept):
            a[k, :u - w] = 0.0
            a[k, u + w + 1:] = 0.0
        magnitude = np.abs(a, out=rest.view(float)[:a.size].reshape(a.shape))
        peaks[rows.start // _CZT_BLOCK] = magnitude.max()
        to_momenta(a, block[rows], rest)

    width = max(2 * u + 1 + max(read.size, to_momenta.size)
                for u, (read, to_momenta) in plans.items())
    _on_lanes(n, width, transform)
    scale = float(peaks.max())

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
