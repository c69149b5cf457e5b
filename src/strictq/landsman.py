"""Strict quantization of 1-D Riemannian cotangent bundles by midpoint charts.

In one dimension every geodesic is arclength-linear, so the whole
Riemannian apparatus reduces to the arclength chart ``s(q) = \\int sqrt(g)``
and its inverse, which is all a :class:`Metric1D` holds (closed forms, or
the Gauss-Legendre table of :func:`metric_numeric`); a circle's period is
the arclength of its ``[lo, hi)``:

* the exponential map is ``exp_q(X) = s^{-1}(s(q) + sqrt(g(q)) X)``;
* the chart ``phi_hbar(q, X) = (exp_q(hbar X/2), exp_q(-hbar X/2))``
  identifies a neighbourhood of the diagonal with a neighbourhood of the
  zero section, with inverse given by the geodesic midpoint
  ``q = s^{-1}((s(x) + s(x'))/2)`` and the rescaled separation
  ``X = (s(x) - s(x'))/(hbar sqrt(g(q)))``.

A compactly supported fiber symbol ft(q, v) (the metric-weighted fiber
Fourier transform of a phase-space observable) is quantized by pulling
back along that chart,

    K(x, x') = (1/hbar) ft(phi_hbar^{-1}(x, x')),

which is admissible as long as the support of ft stays inside the chart;
``hbar_admissible`` computes the largest usable hbar and the kernel
builder refuses anything above it.

The operators act on L^2(sqrt(g) dx).  On half-densities they are
ordinary integral operators on L^2(dx) (Landsman 1998): the unitary
``psi -> g^{1/4} psi`` carries a kernel K to ``g(x)^{1/4} K(x, x')
g(x')^{1/4}``.  :func:`landsman_kernel` returns its kernels in that
frame, so :func:`strictq.weyl.apply`, ``compose`` and ``op_norm`` serve
them with the flat measure dx, as they serve Weyl kernels.

For the flat metric all of this collapses to the Weyl-Moyal kernel; the
closed-form metric ``g = e^{2q}`` (arclength ``e^q``) exercises the
genuinely curved case, and a flat circle exercises the compact one.
Each is one report's experiment, returning its rows, notes and tagged
warnings: :func:`flat_transfer`, :func:`exp2q_dirac` (hbar from at most
0.9 times the admissible hbar, and at most 0.16) and
:func:`circle_hermiticity` (from at most 0.9 times the admissible hbar),
all with kernels in the L^2(dx) frame.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .asymptotics import clip_schedule, quantum_bracket
from .core import Grid1D, Grid2D, GridError, HbarSchedule, SampledFunction, fourier_fiber
from .core import record_warnings, sample, tagged_warnings
from .gaussian import GaussianObservable
from .symbols import gaussian_field, poisson_field
from .weyl import OperatorKernel, compose, op_norm, weyl_kernel

__all__ = [
    "Metric1D",
    "FiberSymbol",
    "DomainError",
    "AdmissibilityError",
    "metric_flat",
    "metric_exp2q",
    "metric_circle",
    "metric_numeric",
    "fiber_fourier",
    "gaussian_fiber_symbol",
    "exp_map",
    "phi_hbar",
    "phi_hbar_inverse",
    "hbar_admissible",
    "landsman_kernel",
    "flat_transfer",
    "exp2q_pair",
    "exp2q_dirac",
    "circle_hermiticity",
]


#: Cells of the numeric arclength table on ``[lo, hi]``.
ARCLENGTH_CELLS = 8192
#: Relative fiber magnitude below which a symbol counts as outside its support.
SUPPORT_TOL = 1e-12


class DomainError(ValueError):
    """Raised when a geodesic leaves the metric's domain."""


class AdmissibilityError(ValueError):
    """Raised when hbar exceeds the chart admissibility bound of a symbol."""


def _sqrt_g(g, q):
    vals = np.asarray(g(q), dtype=float)
    if np.any(vals <= 0):
        raise ValueError("metric must be positive on its domain")
    return np.sqrt(vals)


@dataclass(frozen=True)
class Metric1D:
    """A 1-D Riemannian metric g(q) dq^2 as its arclength chart.

    ``s`` is the arclength ``\\int sqrt(g)`` and ``s_inv`` its inverse, on
    ``[lo, hi]``; :func:`metric_numeric` tabulates them for a g without a
    closed form.  ``domain`` is ``'line'`` (the arclength range may still
    be bounded, as for g = e^{2q}) or ``'circle'``, whose period is the
    arclength ``s(hi) - s(lo)`` of ``[lo, hi)``.
    """

    g: object
    s: object
    s_inv: object
    domain: str = "line"
    lo: float = -20.0
    hi: float = 20.0

    def __post_init__(self):
        if self.domain not in ("line", "circle"):
            raise ValueError(f"unknown domain {self.domain!r}")

    def arclength(self, q):
        return np.asarray(self.s(np.asarray(q, dtype=float)), dtype=float)

    def arclength_inverse(self, sigma):
        return np.asarray(self.s_inv(np.asarray(sigma, dtype=float)), dtype=float)

    def sqrt_g(self, q):
        return _sqrt_g(self.g, q)

    def s_range(self):
        return float(self.s(self.lo)), float(self.s(self.hi))


def metric_flat() -> Metric1D:
    """g = 1 on the line; arclength is the identity."""
    return Metric1D(g=lambda q: np.ones_like(np.asarray(q, dtype=float)),
                    s=lambda q: q, s_inv=lambda s: s)


def metric_exp2q() -> Metric1D:
    """g = e^{2q}; arclength e^q > 0, so geodesics exit at X <= -1."""
    return Metric1D(g=lambda q: np.exp(2.0 * np.asarray(q, dtype=float)),
                    s=np.exp, s_inv=lambda s: np.log(np.asarray(s, dtype=float)))


def metric_circle() -> Metric1D:
    """The flat unit circle, on ``[0, 1)``."""
    return Metric1D(g=lambda q: np.ones_like(np.asarray(q, dtype=float)),
                    s=lambda q: q, s_inv=lambda s: s, domain="circle", lo=0.0, hi=1.0)


def metric_numeric(g, lo: float, hi: float) -> Metric1D:
    """g on the line, its arclength tabulated on ``[lo, hi]``.

    ``s`` is 3-point Gauss-Legendre per cell of ``ARCLENGTH_CELLS``,
    accumulated over the cells left of q plus the same rule over the
    partial cell; ``s_inv`` interpolates the table and takes Newton steps.
    Outside ``[lo, hi]`` both raise :class:`DomainError`, and a g that is
    not positive on the table is refused here.
    """

    def rule(a, h):
        """``int_a^{a+h} sqrt(g)`` for each a (and h), by 3-point Gauss-Legendre."""
        mid = a + 0.5 * h
        off = np.sqrt(3.0 / 5.0) * 0.5 * h
        nodes = np.concatenate([mid - off, mid, mid + off])
        return h * (np.array([5.0, 8.0, 5.0]) / 18.0 @ _sqrt_g(g, nodes).reshape(3, -1))

    edges = np.linspace(lo, hi, ARCLENGTH_CELLS + 1)
    s_edges = np.concatenate([[0.0], np.cumsum(rule(edges[:-1], edges[1] - edges[0]))])

    def s(q):
        q = np.asarray(q, dtype=float)
        if np.any(q < edges[0]) or np.any(q > edges[-1]):
            raise DomainError(f"q outside the tabulated range [{edges[0]:g}, {edges[-1]:g}]")
        # the table up to the left edge of q's cell, then the partial cell
        flat = q.ravel()
        cell = np.minimum(np.searchsorted(edges, flat, side="right") - 1, edges.size - 2)
        left = edges[cell]
        return (s_edges[cell] + rule(left, flat - left)).reshape(q.shape)

    def s_inv(sigma):
        sigma = np.asarray(sigma, dtype=float)
        if np.any(sigma < s_edges[0]) or np.any(sigma > s_edges[-1]):
            raise DomainError("arclength value outside the tabulated range")
        x = np.interp(sigma, s_edges, edges)
        for _ in range(4):
            x = np.clip(x - (s(x) - sigma) / _sqrt_g(g, x), edges[0], edges[-1])
        return x

    return Metric1D(g=g, s=s, s_inv=s_inv, lo=lo, hi=hi)


def _knots(x: np.ndarray) -> np.ndarray:
    """FITPACK's knots of the s = 0 quintic interpolant: each end 6 times, x[3:-3] between."""
    return np.concatenate([np.repeat(x[0], 6), x[3:-3], np.repeat(x[-1], 6)])


def _bsplines(t: np.ndarray, x: np.ndarray):
    """The knot interval l of each x, clamped to the knots' span, and the six
    quintic B-splines B_{l-5}, ..., B_l that are nonzero there, as rows, by
    de Boor's recursion in the order of FITPACK's ``fpbspl``."""
    x = np.clip(x, t[5], t[-6])
    l = np.clip(np.searchsorted(t, x, side="right") - 1, 5, t.size - 7)
    near = t[np.arange(-4, 6)[:, None] + l]  # t[l - 4], ..., t[l + 5]
    b = np.ones((1, x.size))
    for j in range(1, 6):
        right, left = near[5:5 + j], near[5 - j:5]
        f = b / (right - left)
        b = np.zeros((j + 1, x.size))
        b[:j] = f * (right - x)
        b[1:] += f * (x - left)
    return l, b


class _QuinticSpline:
    """The quintic tensor-product interpolant of samples on a rectangular grid.

    It is FITPACK's (``RectBivariateSpline`` with ``kx = ky = 5``, s = 0),
    reproduced in numpy: the knots of :func:`_knots` on both axes, the
    complex coefficients from one collocation solve per axis, and each
    value the 6 x 6 window of coefficients around the point weighted by
    the B-splines of :func:`_bsplines`.  Evaluation is pointwise, and
    points beyond the grid read its nearest edge.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, values: np.ndarray):
        if min(x.size, y.size) < 6:
            raise GridError("a quintic interpolant needs at least 6 points per axis")
        self.tx, self.ty = _knots(x), _knots(y)
        coef = np.linalg.solve(self._collocation(self.tx, x), values)
        self.coef = np.linalg.solve(self._collocation(self.ty, y), coef.T).T

    @staticmethod
    def _collocation(t, x):
        # a[i, c] = B_c(x_i), the basis of the interpolation conditions
        l, b = _bsplines(t, x)
        a = np.zeros((x.size, x.size))
        a[np.arange(x.size), l + np.arange(-5, 1)[:, None]] = b
        return a

    def __call__(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        lq, bq = _bsplines(self.tx, q)
        lv, bv = _bsplines(self.ty, v)
        ny = self.coef.shape[1]
        # flat indices of coef[lq - 5, lv - 5 + c], c = 0..5, one row per c
        window = (lq - 5) * ny + (lv - 5) + np.arange(6)[:, None]
        flat = self.coef.ravel()
        out = np.zeros(q.size, dtype=self.coef.dtype)
        for r in range(6):
            out += bq[r] * (flat.take(window + r * ny) * bv).sum(axis=0)
        return out


@dataclass(frozen=True)
class FiberSymbol:
    """Samples of ft(q, v) on base x fiber grids, with compact-support data.

    Off grid a symbol is read from its closed form ``symbol`` where there
    is one, else from the quintic interpolant of its samples
    (:class:`_QuinticSpline`, FITPACK's interpolant reproduced in numpy).
    """

    base: Grid1D
    fiber: Grid1D
    values: np.ndarray
    support_radius: float
    symbol: object = None
    warnings: tuple = ()

    def __post_init__(self):
        if np.shape(self.values) != (self.base.n, self.fiber.n):
            raise GridError("fiber symbol values do not match the grids")
        if not self.support_radius > 0:
            raise ValueError("need a positive support radius")

    @cached_property
    def _spline(self):
        return _QuinticSpline(self.base.points, self.fiber.points, self.values)

    def evaluate(self, q, v):
        """Evaluate at scattered points; zero outside the support radius.

        Only points with ``|v| <= support_radius`` are evaluated (closed
        form, else the spline, built once per symbol); both are pointwise,
        so this equals evaluating everywhere and masking.
        """
        q, v = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(v, dtype=float))
        inside = np.abs(v) <= self.support_radius
        q, v = q[inside], v[inside]
        out = np.zeros(inside.shape, dtype=complex)
        out[inside] = self._spline(q, v) if self.symbol is None else self.symbol(q, v)
        return out


def _support_radius(values: np.ndarray, fiber: Grid1D) -> float:
    mags = np.max(np.abs(values), axis=0)
    scale = mags.max()
    if scale == 0.0:
        return fiber.delta
    alive = np.abs(fiber.points[mags > SUPPORT_TOL * scale])
    return float(alive.max()) + fiber.delta if alive.size else fiber.delta


def fiber_fourier(f: SampledFunction, metric: Metric1D) -> FiberSymbol:
    """Metric-weighted fiber transform: ``ft(q, v) = \\int dp/(2 pi sqrt(g)) e^{ipv} f``."""
    flat = fourier_fiber(f)
    weighted = flat.values / metric.sqrt_g(f.grid.qaxis.points)[:, None]
    fiber = flat.grid.paxis
    return FiberSymbol(
        base=f.grid.qaxis,
        fiber=fiber,
        values=weighted,
        support_radius=_support_radius(weighted, fiber),
        warnings=flat.warnings,
    )


def gaussian_fiber_symbol(g, metric: Metric1D, base: Grid1D, fiber: Grid1D) -> FiberSymbol:
    """Fiber symbol of a Gaussian observable, with its analytic oracle.

    The flat fiber transform of the Gaussian is again Gaussian,

        ft(q, v) = 2 e^{-(q - q0)^2/2 alpha} sqrt(beta/2 pi)
                   e^{-beta v^2/2} e^{i p0 v},

    and the metric-weighted transform divides by sqrt(g(q)).  Keeping the
    closed form as the oracle makes kernel builds exact up to rounding.
    """

    def ft(q, v):
        flat_part = (
            2.0
            * np.exp(-((np.asarray(q) - g.q0) ** 2) / (2.0 * g.alpha))
            * np.sqrt(g.beta / (2.0 * np.pi))
            * np.exp(-g.beta * np.asarray(v) ** 2 / 2.0)
            * np.exp(1j * g.p0 * np.asarray(v))
        )
        return flat_part / metric.sqrt_g(q)

    values = ft(base.points[:, None], fiber.points[None, :])
    return FiberSymbol(
        base=base,
        fiber=fiber,
        values=values,
        support_radius=_support_radius(values, fiber),
        symbol=ft,
    )


def exp_map(q, X, metric: Metric1D):
    """Geodesic exponential: walk arclength ``sqrt(g(q)) X`` from q."""
    target = metric.arclength(q) + metric.sqrt_g(q) * np.asarray(X, dtype=float)
    s_lo, s_hi = metric.s_range()
    if metric.domain == "circle":
        return metric.arclength_inverse(s_lo + np.mod(target - s_lo, s_hi - s_lo))
    if np.any(target < s_lo) or np.any(target > s_hi):
        raise DomainError(
            f"geodesic leaves the domain (arclength target outside [{s_lo:g}, {s_hi:g}])"
        )
    return metric.arclength_inverse(target)


def phi_hbar(q, X, hbar: float, metric: Metric1D):
    """Midpoint chart: ``(exp_q(hbar X/2), exp_q(-hbar X/2))``."""
    X = np.asarray(X, dtype=float)
    return (exp_map(q, hbar * X / 2.0, metric), exp_map(q, -hbar * X / 2.0, metric))


def phi_hbar_inverse(x, xp, hbar: float, metric: Metric1D):
    """Invert the midpoint chart: geodesic midpoint and rescaled separation."""
    sx = metric.arclength(x)
    sxp = metric.arclength(xp)
    if metric.domain == "circle":
        s_lo, s_hi = metric.s_range()
        length = s_hi - s_lo
        diff = np.mod(sx - sxp + length / 2.0, length) - length / 2.0
        smid = s_lo + np.mod(sxp + diff / 2.0 - s_lo, length)
    else:
        diff = sx - sxp
        smid = 0.5 * (sx + sxp)
    q = metric.arclength_inverse(smid)
    X = diff / (hbar * metric.sqrt_g(q))
    return q, X


def hbar_admissible(fsym: FiberSymbol, metric: Metric1D) -> float:
    """Largest hbar for which the support of ft maps inside the chart.

    On a circle the bound keeps geodesics within half the period;
    on the line it keeps them inside the arclength range of the base grid.
    """
    R = fsym.support_radius
    base = fsym.base.points
    mags = np.max(np.abs(fsym.values), axis=1)
    if mags.max() == 0.0:
        return float("inf")
    live = mags > 1e-9 * mags.max()
    support = base[live] if live.any() else base
    sq = metric.arclength(support)
    root_g = metric.sqrt_g(support)
    s_lo, s_hi = metric.s_range()
    if metric.domain == "circle":
        # keep geodesic separations short of the antipodal cut
        return float((s_hi - s_lo) / (2.0 * root_g.max() * R))
    grid_lo = metric.arclength(fsym.base.lo)
    grid_hi = metric.arclength(fsym.base.hi)
    lo = max(s_lo, grid_lo)
    hi = min(s_hi, grid_hi)
    room = np.minimum(sq - lo, hi - sq)
    bound = 2.0 * np.min(room / (root_g * R))
    return float(bound)


def landsman_kernel(fsym: FiberSymbol, hbar: float, metric: Metric1D) -> OperatorKernel:
    """Kernel of the quantized ft on the symbol's base grid, in the L^2(dx) frame.

    The operator on L^2(sqrt(g) dx) has kernel ``(1/hbar) ft(phi_hbar^{-1}(x, x'))``;
    carried to L^2(dx) by ``psi -> g^{1/4} psi`` its matrix is

        (1/hbar) ft(phi_hbar^{-1}(x_i, x_j)) g(x_i)^{1/4} g(x_j)^{1/4},

    the weight applied as one symmetric outer product, so kernels of real
    symbols stay exactly Hermitian (and flat metrics multiply by 1).
    """
    limit = hbar_admissible(fsym, metric)
    if hbar > limit:
        raise AdmissibilityError(
            f"hbar={hbar:g} exceeds the admissibility bound hbar(f)={limit:g}"
        )
    x = fsym.base.points
    q, X = phi_hbar_inverse(x[:, None], x[None, :], hbar, metric)
    r = np.sqrt(metric.sqrt_g(x))
    matrix = fsym.evaluate(q, X) / hbar * np.outer(r, r)
    return OperatorKernel(grid=fsym.base, matrix=matrix, hbar=hbar,
                          warnings=fsym.warnings)


def _capped_hbars(schedule: HbarSchedule, cap: float) -> np.ndarray:
    """The schedule started at min(cap, its start), with at least two values."""
    return replace(schedule, start=min(cap, schedule.start),
                   count=max(schedule.count, 2)).values


def flat_transfer(obs: GaussianObservable, grid: Grid2D, schedule: HbarSchedule) -> tuple:
    """Rows ``[hbar, sup |K_L - K_W|, sup |K_W|]`` of the flat Landsman kernel K_L
    and the Weyl kernel K_W of ``obs`` on ``grid``, the schedule clipped at the
    aliasing guard, with notes and warnings.  The fiber grid is the fiber
    transform's, which refuses samples with no decay at the p-boundary."""
    metric = metric_flat()
    f = sample(gaussian_field(obs), grid)
    fsym = gaussian_fiber_symbol(obs, metric, grid.qaxis, fiber_fourier(f, metric).fiber)
    schedule, notes = clip_schedule(f, schedule)
    rows, seen = [], {}
    for hbar in schedule.values:
        kl, kw = landsman_kernel(fsym, hbar, metric), weyl_kernel(f, hbar, grid.qaxis)
        record_warnings(seen, hbar, kl, kw)
        gap = float(np.max(np.abs(kl.matrix - kw.matrix)))
        rows.append([hbar, gap, float(np.max(np.abs(kw.matrix)))])
    return rows, notes, tagged_warnings(seen)


def exp2q_pair(n: int) -> tuple:
    """``(f_A, f_B, ft_A, ft_B)``: two Gaussians on ``[-2, 2) x [-12, 12)``, n points
    per axis, and their closed-form fiber symbols for g = e^{2q}."""
    metric = metric_exp2q()
    grid = Grid2D(Grid1D(-2.0, 2.0, n), Grid1D(-12.0, 12.0, n))
    pair = (GaussianObservable(0.0, -0.2, 0.05, 1.0), GaussianObservable(0.1, 0.3, 0.06, 0.9))
    fA, fB = (sample(gaussian_field(g), grid) for g in pair)
    fiber = fiber_fourier(fA, metric).fiber
    sA, sB = (gaussian_fiber_symbol(g, metric, grid.qaxis, fiber) for g in pair)
    return fA, fB, sA, sB


def exp2q_dirac(n: int, schedule: HbarSchedule) -> tuple:
    """Rows ``[hbar, ||Q({f_A, f_B}) - [Q(f_A), Q(f_B)]/(i hbar)||, ||Q(f_A)||]`` of
    :func:`exp2q_pair`, with notes and warnings."""
    metric = metric_exp2q()
    fA, fB, sA, sB = exp2q_pair(n)
    sBr = fiber_fourier(sample(poisson_field(fA.symbol, fB.symbol), fA.grid), metric)
    adm = min(hbar_admissible(s, metric) for s in (sA, sB, sBr))
    rows, seen = [], {}
    for hbar in _capped_hbars(schedule, min(0.9 * adm, 0.16)):
        ka, kb, kbr = (landsman_kernel(s, hbar, metric) for s in (sA, sB, sBr))
        record_warnings(seen, hbar, ka, kb, kbr)
        bracket = quantum_bracket(ka, kb, hbar)
        diff = OperatorKernel(grid=sA.base, matrix=kbr.matrix - bracket.matrix, hbar=hbar)
        rows.append([hbar, op_norm(diff), op_norm(ka)])
    return rows, (), tagged_warnings(seen)


def circle_hermiticity(n: int, schedule: HbarSchedule) -> tuple:
    """Rows ``[hbar, sup |K - K^H|, sup |K|]`` of the real symbol
    ``(1 + 0.3 cos 2 pi q) e^{-v^2}`` on the unit circle, n points on the base
    and on the fiber ``[-8, 8)``, with notes and warnings."""
    metric = metric_circle()
    axis, vax = Grid1D(0.0, 1.0, n), Grid1D(-8.0, 8.0, n)

    def ft(q, v):
        return (1.0 + 0.3 * np.cos(2 * np.pi * np.asarray(q))) * np.exp(-np.asarray(v) ** 2)

    values = ft(axis.points[:, None], vax.points[None, :]).astype(complex)
    fsym = FiberSymbol(base=axis, fiber=vax, values=values, support_radius=6.0, symbol=ft)
    rows, seen = [], {}
    for hbar in _capped_hbars(schedule, 0.9 * hbar_admissible(fsym, metric)):
        kernel = landsman_kernel(fsym, hbar, metric)
        record_warnings(seen, hbar, kernel)
        herm = float(np.max(np.abs(kernel.matrix - kernel.matrix.conj().T)))
        rows.append([hbar, herm, float(np.max(np.abs(kernel.matrix)))])
    return rows, (), tagged_warnings(seen)


# The two names below exist only because benchmarks/tracer.py traces them
# by name; the kernels are already in the L^2(dx) frame, so the metric is unused.
def weighted_compose(a: OperatorKernel, b: OperatorKernel, metric: Metric1D) -> OperatorKernel:
    return compose(a, b)


def weighted_op_norm(kernel: OperatorKernel, metric: Metric1D) -> float:
    return op_norm(kernel)
