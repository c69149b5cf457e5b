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
measures the operator-norm gap between the two constructions.  That
element (``fiber_hat``) is one Fourier pass: an FFT along p, then the
shear ``x -> x + hbar y/2`` read off the periodic x-interpolant that the
involution and the boundary check read too, by one FFT pair over x.

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

Per hbar the shifted diagonals for the whole fiber window are read from
the one midpoint/separation chart of a kernel, which dequantization
reads too (``weyl._Chart``): a 2-D FFT of the kernel, whose
coefficients are regrouped by diagonal frequency (the sum of the two
wavenumbers) and separation frequency (their difference); one inverse
FFT along the diagonal; and, per block of rows, one chirp-z transform
(Bluestein) from the separation frequencies onto the uniform run of
shifts ``hbar v/2``, O(n^2 log n) per hbar in all.  For even n the
Nyquist modes are split by cosine on both axes
(``CONVENTIONS["even_n_nyquist"]``).

Off-grid evaluation is everywhere the band-limited interpolant, so the
grids must contain the supports: convolution shifts must stay inside
the box (truncation error otherwise), kernel separations beyond the
representable fiber window are zeroed, mirroring the kernel builder, and
the shears of ``fiber_hat`` and the involution warn where they read
wrapped content (all at ``WINDOW_EDGE_TOL``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Grid1D,
    Grid2D,
    GridError,
    SampledFunction,
    boundary_decay,
    conjugate_grid,
    record_warnings,
    shift_factors,
    tagged_warnings,
    trig_shift,
    _fiber_phase,
)
from .weyl import (OperatorKernel, _Chart, _sum_difference_index, op_norm,
                   weyl_kernel)

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


#: Relative content above which a read past the represented window or a
#: wrapped shear is flagged.
WINDOW_EDGE_TOL = 1e-8


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


def _reflection(yaxis: Grid1D) -> np.ndarray:
    """Column indices of -y_k: the reversal on an axis symmetric about 0, and
    ``k -> (-k) mod n`` on an axis whose reflection lands on the grid modulo
    its period ``n dy``, as on the conjugate grids of :func:`fiber_hat`
    (points ``(k - n/2) dy``, both parities)."""
    n, dy = yaxis.n, yaxis.delta
    if abs(yaxis.lo + yaxis.hi) <= 1e-12 * (yaxis.hi - yaxis.lo):
        return np.arange(n)[::-1]
    # -y_k = y_{-k} + (-2 lo - dy): on the grid mod n dy iff that is a whole period
    periods = (-2.0 * yaxis.lo - dy) / (n * dy)
    if abs(periods - round(periods)) <= 1e-12 * max(1.0, abs(periods)):
        return -np.arange(n) % n
    raise GridError("involution needs a y-axis whose reflection lands on the grid, "
                    "directly or modulo its period")


def groupoid_involution(f: GroupoidFunction) -> GroupoidFunction:
    """Involution ``f*(x, y) = conj f(x + eps y, -y)``, with -y read on the grid
    directly or modulo the y-period (:func:`_reflection`)."""
    yaxis = f.grid.paxis
    out, wrapped = _shear_x(f.values[:, _reflection(yaxis)], f.grid.qaxis,
                            f.epsilon * yaxis.points)
    return GroupoidFunction(grid=f.grid, values=np.conj(out), epsilon=f.epsilon,
                            warnings=f.warnings + wrapped)


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

    # the spectrum refers to the first sample y_0: shift from it onto the targets
    basis = np.zeros((yaxis.n, 2 * n - 1), dtype=complex)
    basis[:, inside] = shift_factors(yaxis.n, yaxis.delta, targets[inside] - yaxis.points[0])
    table = np.fft.fft(f.values, axis=1) / yaxis.n @ basis  # values f(x_i, targets_t)

    warnings = list(f.warnings)
    if not inside.all():
        scale = np.max(np.abs(table))
        edge_idx = np.flatnonzero(inside)
        edge = np.max(np.abs(table[:, edge_idx[[0, -1]]])) if scale > 0 else 0.0
        if scale > 0 and edge > WINDOW_EDGE_TOL * scale:
            warnings.append(
                f"fiber content {edge / scale:.2e} at the representable window edge"
            )

    i = np.arange(n)
    matrix = table[i[:, None], (i[None, :] - i[:, None]) + n - 1] / eps
    return OperatorKernel(grid=xaxis, matrix=matrix, hbar=eps,
                          warnings=tuple(warnings))


def _shear_x(values: np.ndarray, xaxis: Grid1D, shifts: np.ndarray):
    """Column k of ``values`` read off its periodic x-interpolant at ``x + shifts[k]``
    by one FFT pair; even-n Nyquist mode split by cosine, as in ``trig_shift``.

    Returns the sheared array and its warnings: where ``x + shifts[k]``
    leaves the box the read is wrapped, so content there above
    ``WINDOW_EDGE_TOL`` of the array's scale is flagged.
    """
    factor = shift_factors(xaxis.n, xaxis.delta, shifts)
    out = np.fft.ifft(np.fft.fft(values, axis=0) * factor, axis=0)
    x = xaxis.points[:, None] + shifts
    magnitude = np.abs(out)
    scale = np.max(magnitude)
    edge = np.max(magnitude[(x < xaxis.lo) | (x >= xaxis.hi)], initial=0.0)
    if edge > WINDOW_EDGE_TOL * scale:
        return out, (f"sheared content {edge / scale:.2e} where the shift wraps the x-box",)
    return out, ()


def fiber_hat(f: SampledFunction, hbar: float) -> GroupoidFunction:
    """Groupoid element of a phase-space function: ``int dp/2pi e^{-ipy} f(x + hbar y/2, p)``.

    One Fourier pass over the samples: ``g = int dp/2pi e^{-ipy} f(x, p)`` on
    the conjugate y-grid by an FFT along p, then the shear of g along x read
    off the periodic x-interpolant, as elsewhere in the module (:func:`_shear_x`).
    """
    if not isinstance(f.grid, Grid2D):
        raise GridError("fiber_hat needs a phase-space sampled function")
    paxis = f.grid.paxis
    yaxis = conjugate_grid(paxis)
    y = yaxis.points
    post = (paxis.delta / (2.0 * np.pi)) * _fiber_phase(paxis, y)
    g = np.fft.fft(f.values * (-1.0) ** np.arange(paxis.n), axis=1) * post
    values, wrapped = _shear_x(g, f.grid.qaxis, hbar * y / 2.0)
    return GroupoidFunction(grid=Grid2D(qaxis=f.grid.qaxis, paxis=yaxis), values=values,
                            epsilon=hbar, warnings=f.warnings + wrapped)


def wm_correspondence(f: SampledFunction, hbar: float) -> dict:
    """Compare the semidirect representation of f-hat with the Weyl kernel.

    Returns the groupoid element, both kernels (``rep`` and ``weyl``,
    which carry their warnings), the operator-norm defect between them
    and the Weyl kernel norm for scale.
    """
    fhat = fiber_hat(f, hbar)
    rep = semidirect_rep(fhat)
    kw = weyl_kernel(f, hbar, f.grid.qaxis)
    diff = OperatorKernel(grid=kw.grid, matrix=rep.matrix - kw.matrix, hbar=hbar)
    return {"fhat": fhat, "rep": rep, "weyl": kw, "defect": op_norm(diff),
            "weyl_norm": op_norm(kw)}


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


def tangent_boundary_check(family: KernelFamily) -> BoundaryReport:
    """Sup distance of ``hbar K(q + hbar v/2, q - hbar v/2)`` from the limit symbol.

    The kernel is evaluated off grid by its trigonometric interpolant,
    which wraps periodically; all fiber values of one hbar are read from
    one 2-D FFT of the kernel, one inverse FFT along the diagonal and a
    chirp-z transform across the fiber window per block of rows (see
    :class:`strictq.weyl._Chart`).  Fiber
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
    defects, raws, windows = [], [], []
    notes = []
    seen: dict = {}
    index = _sum_difference_index(qaxis.n)
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
        diag = _Chart(kernel.matrix, qaxis.delta, index).diagonals(
            hbar * v[c] / 2.0, hbar * vaxis.delta / 2.0, cols - c)
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
