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
edge; it also warns of content above ``BAND_EDGE_TOL`` in the edge rows
and columns, where the q-box cuts the kernel off.  A second,
hbar-dependent limit is fatal: once ``pi hbar / dp`` drops below the
position spacing the aliased copies of the kernel collide with the true
diagonal and no usable operator remains, which raises
:class:`AliasingError` naming the smallest usable hbar.

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
* the kernel build transforms the symbol samples at separations
  ``d >= 0`` only and mirrors them onto ``-d`` by conjugation, through the
  transform of the conjugate symbol for a complex one; the diagonal is the
  mean of the two, so ``Q(conj f) = Q(f)^H`` holds exactly: kernels of real
  symbols are exactly Hermitian, as the dense product made them, and
  :func:`op_norm` keeps choosing its Hermitian solver for their differences;
* rows are transformed in blocks of ``_CZT_BLOCK`` rows, the tasks of
  the lanes;
* the FFTs are ``numpy.fft``'s, done in place (``out=``), at padded
  lengths from :func:`_fast_len`, the smallest 2, 3, 5, 7, 11-smooth
  integer no shorter than the linear convolution.

Lanes.  The blocks of one transform run at the same time on its lanes, one
per CPU in the process's affinity set: the calling thread and helper
threads that are started and joined inside the transform.  So importing
starts no thread, none outlives a transform, and a forked child needs no
reset.  A lane takes whole blocks: the pre-chirp multiply, the padded FFT,
the spectrum multiply, the inverse FFT and the post-chirp write into the
block's rows of the output (for the kernel build, onto the rows'
anti-diagonals), all inside a workspace that the caller allocates once per
transform.  The task height is a constant and each block's arithmetic
involves its own rows alone, so every row is computed by the same
operations whichever lane takes it and however many lanes there are:
results are bit-identical for every lane count.  The kernel build,
dequantization and the tangent-boundary check all reach the lanes through
:func:`_on_lanes`.  The lanes and the BLAS threads of the dense solves
share one thread budget per process, and never run at the same time.

Dense solves.  :func:`op_norm` takes ``eigvalsh`` and ``svdvals`` from
``numpy.linalg``, on the OpenBLAS that also runs the ``@`` of
:func:`compose` and :func:`apply`.  The package imports no scipy module,
so scipy's second OpenBLAS is never loaded: every dense solve runs on the
one pool, whose size this module owns.  On import it sets numpy's OpenBLAS
to one thread, through the library's own thread setter.  Only the solves
and products of :func:`op_norm`, :func:`compose` and
:func:`strictq.gaussian.positivity_verdict` at ``n >= WIDE_FROM_N`` run on
one BLAS thread per lane (never more than OpenBLAS started with), through
:func:`_blas_threads`, which goes back to one thread when they return.  The reason is
OpenBLAS's helper thread: after each multi-threaded call it spins, for
about 0.12 s of CPU, waiting for the next one.  Below n = 768 the second
thread buys nothing to pay for that spin, and two processes' spinning
helpers on two cores starve each other.  Milliseconds, best of 3, one
thread against two, on a 2-core host::

    n      eigvalsh    svdvals    matmul
    384    19.5/20.6   30/35      5.7/4.2
    512    45/43       87/69      13.6/9.1
    768    140/94      298/188    47/23

Where numpy is built on another BLAS no setter is found and the threads
are left as that BLAS chose them.  :func:`thread_budget` is the record
that every report's config carries: bits of a dense solve can depend on
the BLAS thread count.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
from numpy.fft import fft, fft2, ifft
from numpy.linalg import eigvalsh, svdvals

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

#: Dense solves and products of at least this size run on one BLAS thread
#: per lane, smaller ones on one thread (module docstring, "Dense solves").
WIDE_FROM_N = 768


def _openblas_threads():
    """The thread-count setter and getter of the OpenBLAS bundled with numpy,
    or ``None`` when numpy was built on another BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


_BLAS = _openblas_threads()
#: The threads OpenBLAS started with (``OPENBLAS_NUM_THREADS`` or the CPUs),
#: which caps the wide solves; then one thread until a wide solve.
_BLAS_START = None
if _BLAS is not None:
    _BLAS_START = _BLAS[1]()
    _BLAS[0](1)


def thread_budget() -> dict:
    """The process's threads: ``lanes``, the BLAS threads of a dense solve
    (``blas``) and of one of size ``>= wide_from_n`` (``blas_wide``);
    ``blas`` and ``blas_wide`` are ``None`` when no OpenBLAS setter was found."""
    found = _BLAS is not None
    return {"lanes": _LANES, "blas": 1 if found else None,
            "blas_wide": min(_LANES, _BLAS_START) if found else None,
            "wide_from_n": WIDE_FROM_N}


@contextmanager
def _blas_threads(n: int):
    """Run the body's dense solve of size ``n`` on ``blas_wide`` BLAS threads
    when ``n >= WIDE_FROM_N``, on the standing one otherwise."""
    wide = thread_budget()["blas_wide"]
    if n < WIDE_FROM_N or wide is None or wide == 1:
        yield
        return
    _BLAS[0](wide)
    try:
        yield
    finally:
        _BLAS[0](1)


def _on_lanes(n_rows: int, width: int, task) -> None:
    """Run ``task(rows, work)`` once for every block of ``_CZT_BLOCK`` rows.

    The calling thread is one lane and up to ``_LANES - 1`` helper threads,
    started for this call and joined before it returns, are the others;
    each lane takes the next untaken block until none is left.  ``work``
    is the lane's own workspace of ``_CZT_BLOCK * width`` complex entries.
    All workspaces are allocated here, in the calling thread: large
    temporaries made on the helpers would stay with their threads'
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
    with ThreadPoolExecutor(lanes - 1, thread_name_prefix="strictq-lane") as pool:
        helpers = [pool.submit(lane, k) for k in range(1, lanes)]
        lane(0)
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
    fmid = np.asarray(f.symbol(mids[:, None], p[None, :]))
    mirror = fmid.conj() if np.iscomplexobj(fmid) and fmid.imag.any() else None

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
    matrix = np.zeros((n, n), dtype=complex)
    # largest entry and largest band-edge entry of each block, over all its
    # separations |d| <= band
    peaks = np.zeros((-(-(2 * n - 1) // _CZT_BLOCK), 2))

    def build(rows, work):
        # rows are midpoints m_a = (q_i + q_j)/2, a = i + j; the sums at d_s = (i - j) dq,
        # s >= 0, go below the diagonal, the conjugate sums of conj f (of f, if real)
        # above it, and the diagonal is the mean of both: Q(conj f) = Q(f)^H exactly
        h = fmid[rows].shape[0]
        both = work[:2 * h * (top + 1)].reshape(2, h, top + 1)
        below, above = both
        rest = work[both.size:]
        plan(fmid[rows], below, rest)
        if mirror is None:
            np.conjugate(below, out=above)
        else:
            plan(mirror[rows], above, rest)
            np.conjugate(above, out=above)
        below[:, 0] = above[:, 0] = 0.5 * (below[:, 0] + above[:, 0])
        magnitude = np.abs(both, out=rest.view(float)[:both.size].reshape(both.shape))
        peaks[rows.start // _CZT_BLOCK] = magnitude.max(), magnitude[:, :, top].max()
        _scatter(matrix.reshape(-1), rows.start, below, above, n)

    _on_lanes(2 * n - 1, plan.size + 2 * (top + 1), build)

    scale, edge = peaks.max(axis=0)
    if not inside.all() and scale > 0 and edge > BAND_EDGE_TOL * scale:
        # the band was clipped: the true kernel must be negligible at the edge
        warnings.append(
            f"kernel content {edge / scale:.2e} at the resolved-band edge "
            f"|q - q'| = {band:g}; refine the p-grid or use larger hbar"
        )
    # the kernel beyond the q-box is cut off: it must be negligible at the box edge
    edge = max(np.abs(matrix[[0, -1]]).max(), np.abs(matrix[:, [0, -1]]).max())
    if scale > 0 and edge > BAND_EDGE_TOL * scale:
        warnings.append(f"kernel content {edge / scale:.2e} at the edge of the q-box "
                        f"[{qgrid.lo:g}, {qgrid.hi:g}); widen the box")

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


def _fast_len(n: int) -> int:
    """Smallest 2, 3, 5, 7, 11-smooth integer >= n: a fast padded FFT length."""
    while True:
        k = n
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


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
        self.size = _fast_len(self.n_in + self.n_out - 1)
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
        fft(conv, axis=1, out=conv)
        conv *= self.spectrum
        ifft(conv, axis=1, out=conv)
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
    (``eigvalsh`` when the matrix is Hermitian to 1e-13).

    Both solvers are ``numpy.linalg``'s, so they share one BLAS pool with
    ``@``, sized by :func:`_blas_threads` (module docstring, "Dense solves")."""
    m = kernel.matrix
    n = m.shape[0]
    if n > MAX_DENSE_N:
        raise ValueError(f"dense norm limited to n <= {MAX_DENSE_N}, got {n}")
    scale = np.max(np.abs(m))
    if scale == 0.0:
        return 0.0
    hermitian = np.max(np.abs(m - m.conj().T)) <= 1e-13 * scale
    with _blas_threads(n):
        top = np.max(np.abs(eigvalsh(m))) if hermitian else svdvals(m)[0]
    return float(top) * kernel.grid.delta


def compose(a: OperatorKernel, b: OperatorKernel) -> OperatorKernel:
    """Operator product as discretized kernel convolution ``A @ B * dq``."""
    if a.grid != b.grid:
        raise GridError("compose needs kernels on the same grid")
    if a.hbar != b.hbar:
        raise ValueError(f"compose needs equal hbar, got {a.hbar} and {b.hbar}")
    with _blas_threads(a.matrix.shape[0]):
        matrix = a.matrix @ b.matrix * a.grid.delta
    return OperatorKernel(
        grid=a.grid,
        matrix=matrix,
        hbar=a.hbar,
        warnings=tuple(dict.fromkeys(a.warnings + b.warnings)),
    )


def adjoint(kernel: OperatorKernel) -> OperatorKernel:
    """Conjugate transpose of the kernel matrix."""
    return replace(kernel, matrix=kernel.matrix.conj().T)


def _add_wrapped(flat, n, off, sign, base, values):
    """``flat[J (2n + 1) + sign w_k + base] += values[k]`` for k = 0, ..., n - 1,
    with ``J = (k + off) mod n`` and w_k the integer wavenumber of FFT index k.

    Between the k where J wraps and where w_k drops by n, the slots step by
    ``2n + 1 + sign``: so the adds are at most three strided slices.
    """
    stride = 2 * n + 1 + sign
    half = (n + 1) // 2
    cuts = sorted({0, n - off, half, n})
    for a, b in zip(cuts, cuts[1:]):
        J = a + off - n * (a + off >= n)
        start = J * (2 * n + 1) + sign * (a - n * (a >= half)) + base
        flat[start:start + (b - a - 1) * stride + 1:stride] += values[a:b]


def _coefficient_table(matrix: np.ndarray) -> np.ndarray:
    """``E[i, m] = sum_J e^{2 pi i J i/n} C[J, m]``, C the 2-D Fourier
    coefficients ``Kh[j1, j2]`` of the matrix summed by (J, m).

    The coefficient at FFT indices (j1, j2), with integer wavenumbers
    (w1, w2), belongs to the diagonal frequency ``J = (j1 + j2) mod n``
    and the separation frequency ``m = w1 - w2`` in [-n, n].  Each row j1
    of the spectrum is added straight into its strided slots of the flat
    (J, m) table (:func:`_add_wrapped`), rows in order.  For even n the
    Nyquist row and column count at half weight each, read at
    ``w = -n/2`` and again at ``w = +n/2``: after the n rows come the
    second readings of the column, the row and the corner.  Every cell
    thus sums its coefficients in the order of one ``bincount`` over the
    spectrum followed by those second readings.

    A function of its own so that the spectrum is freed before the
    chirp-z transforms allocate their blocks.
    """
    n = matrix.shape[0]
    spec = fft2(matrix, norm="forward")
    table = np.zeros((n, 2 * n + 1), dtype=complex)
    flat = table.reshape(-1)
    half = (n + 1) // 2
    if n % 2 == 0:
        spec[:, half] *= 0.5
        spec[half] *= 0.5
    for j1 in range(n):
        _add_wrapped(flat, n, j1, -1, j1 - n * (j1 >= half) + n, spec[j1])
    if n % 2 == 0:
        _add_wrapped(flat, n, half, 1, n - half, spec[:, half])
        _add_wrapped(flat, n, half, -1, n + half, spec[half])
        flat[n] += spec[half, half]
    return ifft(table, axis=0, norm="forward", out=table)


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
    the run of s (:meth:`plan`).  The table adds up C in a fixed order,
    row by row of the spectrum, then the even-n Nyquist second readings
    (:func:`_coefficient_table`).
    """

    def __init__(self, matrix: np.ndarray, dq: float):
        n = matrix.shape[0]
        self.kappa = 2.0 * np.pi / (n * dq)
        self.m = np.arange(-n, n + 1)
        self.table = _coefficient_table(matrix)

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
