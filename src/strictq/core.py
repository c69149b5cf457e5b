"""Grids, quadrature, fiberwise Fourier transforms and trigonometric shifts.

All numerical modules share the conventions fixed here, so they are worth
spelling out once.

Grids
    A 1-D grid covers the interval [lo, hi) with n cells of width
    ``delta = (hi - lo)/n`` and carries its sample points at the *cell
    midpoints* ``lo + (j + 1/2) delta``.  No sample ever lies on the
    boundary, and summing samples times ``delta`` is the midpoint
    quadrature rule (exact order 2, and spectrally accurate for smooth
    functions that decay at the box edge).

Fiber Fourier transform
    The forward transform acts on the momentum variable of a phase-space
    function and carries the measure ``dp/(2 pi)`` with a *positive*
    phase::

        ft(q, v) = 1/(2 pi) \\int dp  e^{+i p v} f(q, p)
        f(q, p)  =          \\int dv  e^{-i p v} ft(q, v)

    On a midpoint grid the Riemann sum of this integral is a plain DFT
    sandwiched between two phase factors (the grid does not start at
    zero, so the naive ``fft`` call would be wrong).  The conjugate grid
    has spacing ``dv = 2 pi/(n dp)`` and its points are the integer (even
    n) or half-integer (odd n) multiples ``(k - n/2) dv``; it is again a
    midpoint grid, for the interval ``[-(n+1) dv/2, (n-1) dv/2)``.  With
    this pairing the forward/inverse round trip is exact to rounding.

Shifts
    Shifts are spectral: FFT, multiply by ``e^{i k s}``, inverse FFT.
    This silently assumes periodicity, which is harmless exactly when the
    sampled function has decayed below tolerance at the box edge; callers
    are expected to size their boxes accordingly (the sampling helpers
    measure boundary decay and attach warnings).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "Grid1D",
    "Grid2D",
    "SampledFunction",
    "HbarSchedule",
    "GridError",
    "SampleError",
    "DecayError",
    "sample",
    "quadrature",
    "fourier_fiber",
    "conjugate_grid",
    "shift_factors",
    "trig_shift",
    "boundary_decay",
    "record_warnings",
    "tagged_warnings",
]

#: Relative boundary magnitude above which decay warnings are attached.
DECAY_TOL = 1e-10

#: Relative boundary magnitude above which the fiber transform refuses to run.
DECAY_HARD_LIMIT = 1e-3


class GridError(ValueError):
    """Raised for invalid grid parameters or mismatched grids."""


class SampleError(ValueError):
    """Raised when a symbol produces a non-finite value at a grid point."""


class DecayError(ValueError):
    """Raised when a function shows no usable decay at a grid boundary."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform midpoint grid with ``n`` cells on ``[lo, hi)``."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not np.isfinite([self.lo, self.hi]).all():
            raise GridError(f"need finite ends, got [{self.lo}, {self.hi}]")
        if not self.hi > self.lo:
            raise GridError(f"need hi > lo, got [{self.lo}, {self.hi}]")
        if self.n < 2:
            raise GridError(f"need n >= 2, got n={self.n}")

    @property
    def delta(self) -> float:
        return (self.hi - self.lo) / self.n

    @property
    def points(self) -> np.ndarray:
        return self.lo + (np.arange(self.n) + 0.5) * self.delta


@dataclass(frozen=True)
class Grid2D:
    """Tensor product of a position axis and a momentum axis."""

    qaxis: Grid1D
    paxis: Grid1D

    def meshes(self):
        """Return (Q, P) coordinate arrays of shape (nq, np)."""
        return np.meshgrid(self.qaxis.points, self.paxis.points, indexing="ij")


@dataclass(frozen=True)
class SampledFunction:
    """Samples on a grid, with the defining symbol kept as an oracle.

    ``values`` has shape ``(n,)`` on a Grid1D and ``(nq, np)`` on a
    Grid2D.  When ``symbol`` is present it must reproduce ``values`` at
    the grid points; kernel builders use it to evaluate at off-grid
    midpoints exactly instead of interpolating.
    """

    grid: Grid1D | Grid2D
    values: np.ndarray
    symbol: object = None
    warnings: tuple = field(default_factory=tuple)

    def __post_init__(self):
        expected = self._expected_shape()
        got = np.shape(self.values)
        if got != expected:
            raise GridError(f"values shape {got} does not match grid {expected}")

    def _expected_shape(self):
        if isinstance(self.grid, Grid2D):
            return (self.grid.qaxis.n, self.grid.paxis.n)
        return (self.grid.n,)

    def with_values(self, values, warnings=None) -> "SampledFunction":
        return replace(
            self,
            values=np.asarray(values),
            symbol=None,
            warnings=self.warnings if warnings is None else tuple(warnings),
        )

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class HbarSchedule:
    """Geometric sequence ``start * ratio**k``, k = 0..count-1."""

    start: float = 1.0
    ratio: float = 0.5
    count: int = 7

    def __post_init__(self):
        if not 0 < self.start < np.inf:
            raise ValueError(f"need a finite start > 0, got {self.start}")
        if not 0 < self.ratio < 1:
            raise ValueError(f"need ratio in (0, 1), got {self.ratio}")
        if self.count < 1:
            raise ValueError(f"need count >= 1, got {self.count}")

    @property
    def values(self) -> np.ndarray:
        return self.start * self.ratio ** np.arange(self.count)

    def clipped(self, hbar_min: float) -> "HbarSchedule":
        """Drop every entry below ``hbar_min`` (keeping at least one)."""
        keep = int(np.sum(self.values >= hbar_min))
        return replace(self, count=max(keep, 1))


def sample(symbol, grid) -> SampledFunction:
    """Evaluate ``symbol`` on every grid point and retain it as the oracle.

    ``symbol`` is called with broadcast coordinate arrays: ``symbol(q)``
    on a 1-D grid and ``symbol(q, p)`` on a 2-D grid.  The samples of a
    symbol that returns real values are stored as float64, and those of
    one that returns complex values as complex128, even where every
    imaginary part is zero.  A non-finite result anywhere raises
    :class:`SampleError` naming the point.
    """
    if isinstance(grid, Grid2D):
        qq, pp = grid.meshes()
        values = _samples(symbol(qq, pp))
        bad = ~np.isfinite(values)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise SampleError(
                f"symbol not finite at (q, p) = ({qq[i, j]:g}, {pp[i, j]:g})"
            )
    else:
        qq = grid.points
        values = _samples(symbol(qq))
        bad = ~np.isfinite(values)
        if bad.any():
            i = int(np.argwhere(bad)[0])
            raise SampleError(f"symbol not finite at q = {qq[i]:g}")
    return SampledFunction(grid=grid, values=values, symbol=symbol)


def _samples(values) -> np.ndarray:
    """``values`` as complex128 if they are complex, else as float64."""
    values = np.asarray(values)
    return values.astype(complex if np.iscomplexobj(values) else float, copy=False)


def quadrature(f: SampledFunction) -> complex:
    """Midpoint rule: sum of samples times the cell measure."""
    if isinstance(f.grid, Grid2D):
        measure = f.grid.qaxis.delta * f.grid.paxis.delta
    else:
        measure = f.grid.delta
    return complex(np.sum(f.values) * measure)


def boundary_decay(values: np.ndarray, axis: int) -> float:
    """Largest first/last-slice magnitude relative to the global maximum."""
    v = np.moveaxis(np.asarray(values), axis, 0)
    scale = np.max(np.abs(v))
    if scale == 0.0:
        return 0.0
    edge = max(np.max(np.abs(v[0])), np.max(np.abs(v[-1])))
    return float(edge / scale)


def record_warnings(seen: dict, hbar: float, *sources) -> None:
    """Remember each warning of ``sources`` with the first hbar that raised it."""
    for source in sources:
        for message in source.warnings:
            seen.setdefault(message, hbar)


def tagged_warnings(seen: dict) -> tuple:
    """The recorded warnings, each tagged with the first hbar that raised it."""
    return tuple(f"{message} (first at hbar={hbar:g})" for message, hbar in seen.items())


def conjugate_grid(axis: Grid1D) -> Grid1D:
    """Fourier-conjugate midpoint grid of an axis (points ``(k - n/2) dv``)."""
    n = axis.n
    dv = 2.0 * np.pi / (n * axis.delta)
    lo = -(n + 1) * dv / 2.0
    return Grid1D(lo=lo, hi=lo + n * dv, n=n)


def _fiber_phase(paxis: Grid1D, vpoints: np.ndarray) -> np.ndarray:
    """Post-phase of the fiber DFTs: ``e^{-i p_j v_k} = (-1)^j e^{-2 pi i jk/n} phase_k``.

    About the centre sample c, ``p_j v_k = p_c v_k + 2 pi (j - c)(k - n/2)/n``
    on the conjugate grid: the integer part rides on (-1)^j, the DFT and
    ``(-1)^c e^{2 pi i ck/n}``, with ck reduced mod n exactly, so only the
    small ``p_c v_k`` is a rounded phase.  The e^{+ipv} transform takes
    the conjugate.
    """
    n, c = paxis.n, paxis.n // 2
    k = np.arange(n)
    return (-1.0) ** c * np.exp(1j * (2.0 * np.pi * (c * k % n) / n - paxis.points[c] * vpoints))


def fourier_fiber(f: SampledFunction) -> SampledFunction:
    """Fourier transform along the fiber: ``ft(q, v) = \\int dp/(2 pi) e^{ipv} f``.

    The input lives on a (q, p) grid; the output lives on (q, v) with the
    conjugate v-axis.  Insufficient decay of ``f`` at the p-boundary is
    attached as a truncation warning (or rejected outright when there is
    no decay to speak of).
    """
    if not isinstance(f.grid, Grid2D):
        raise GridError("fourier_fiber needs a 2-D (q, p) sampled function")
    paxis = f.grid.paxis
    n = paxis.n
    decay = boundary_decay(f.values, axis=1)
    warnings = list(f.warnings)
    if decay > DECAY_HARD_LIMIT:
        raise DecayError(
            f"no decay at the p-boundary (relative edge magnitude {decay:.2e}); "
            "the fiber transform would wrap"
        )
    if decay > DECAY_TOL:
        warnings.append(f"p-boundary truncation: relative edge magnitude {decay:.2e}")

    vaxis = conjugate_grid(paxis)
    v = vaxis.points
    signs = (-1.0) ** np.arange(n)
    spectrum = np.fft.ifft(f.values * signs, axis=1) * n
    out = (paxis.delta / (2.0 * np.pi)) * np.conj(_fiber_phase(paxis, v)) * spectrum
    grid = Grid2D(qaxis=f.grid.qaxis, paxis=vaxis)
    return SampledFunction(grid=grid, values=out, symbol=None, warnings=tuple(warnings))


def _wavenumbers(n: int, delta: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n, d=delta)


def shift_factors(n: int, delta: float, shifts) -> np.ndarray:
    """Multipliers ``e^{i k s}`` of the n DFT modes that shift the trigonometric
    interpolant by each s of ``shifts``, shape (n, len(shifts)).  The even-n
    Nyquist mode is symmetrized (cosine factor) so that real inputs stay real."""
    k = _wavenumbers(n, delta)
    factor = np.exp(1j * np.outer(k, shifts))
    if n % 2 == 0:
        factor[n // 2] = np.cos(k[n // 2] * np.ravel(shifts))
    return factor


def trig_shift(values: np.ndarray, axis: int, shift: float, delta: float):
    """Samples of the band-limited interpolant of ``values`` at ``x_j + shift``
    along the given axis (:func:`shift_factors`)."""
    n = values.shape[axis]
    shape = [1] * values.ndim
    shape[axis] = n
    factor = shift_factors(n, delta, shift).reshape(shape)
    return np.fft.ifft(np.fft.fft(values, axis=axis) * factor, axis=axis)
