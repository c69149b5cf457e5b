"""Strict quantization of 1-D Riemannian cotangent bundles by midpoint charts.

In one dimension every geodesic is arclength-linear, so the whole
Riemannian apparatus reduces to the arclength coordinate
``s(q) = \\int sqrt(g)``:

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline, RectBivariateSpline

from .core import Grid1D, Grid2D, GridError, SampledFunction, fourier_fiber
from .weyl import OperatorKernel, compose, op_norm

__all__ = [
    "Metric1D",
    "FiberSymbol",
    "DomainError",
    "AdmissibilityError",
    "metric_flat",
    "metric_exp2q",
    "metric_circle",
    "fiber_fourier",
    "gaussian_fiber_symbol",
    "exp_map",
    "phi_hbar",
    "phi_hbar_inverse",
    "hbar_admissible",
    "landsman_kernel",
]


class DomainError(ValueError):
    """Raised when a geodesic leaves the metric's domain."""


class AdmissibilityError(ValueError):
    """Raised when hbar exceeds the chart admissibility bound of a symbol."""


@dataclass(frozen=True)
class Metric1D:
    """A 1-D Riemannian metric g(q) dq^2 with its arclength chart.

    ``domain`` is ``'line'`` (arclength range may still be bounded, as for
    g = e^{2q}), ``'interval'`` or ``'circle'``.  Closed-form arclength
    ``s`` and inverse ``s_inv`` may be supplied; otherwise they are built
    numerically (per-cell Gauss-Legendre accumulation plus Newton
    inversion) on ``[lo, hi]``.
    """

    g: object
    domain: str = "line"
    s: object = None
    s_inv: object = None
    lo: float = -20.0
    hi: float = 20.0
    circumference: float = 0.0
    _tables: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.domain not in ("line", "interval", "circle"):
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.domain == "circle" and not self.circumference > 0:
            raise ValueError("circle metrics need a positive circumference")
        if (self.s is None) != (self.s_inv is None):
            raise ValueError("supply both s and s_inv or neither")
        if self.s is None:
            self._build_arclength()

    def _build_arclength(self, cells: int = 8192):
        edges = np.linspace(self.lo, self.hi, cells + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        h = edges[1] - edges[0]
        # 3-point Gauss-Legendre per cell
        xi = np.sqrt(3.0 / 5.0)
        nodes = np.concatenate([mid - xi * h / 2, mid, mid + xi * h / 2])
        w = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
        vals = np.sqrt(np.asarray(self.g(nodes), dtype=float)).reshape(3, cells)
        increments = h * (w @ vals)
        s_edges = np.concatenate([[0.0], np.cumsum(increments)])
        self._tables["spline"] = CubicSpline(edges, s_edges)
        self._tables["edges"] = edges
        self._tables["s_edges"] = s_edges

    def arclength(self, q):
        q = np.asarray(q, dtype=float)
        if self.s is not None:
            return np.asarray(self.s(q), dtype=float)
        return self._tables["spline"](q)

    def arclength_inverse(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        if self.s_inv is not None:
            return np.asarray(self.s_inv(sigma), dtype=float)
        edges, s_edges = self._tables["edges"], self._tables["s_edges"]
        if np.any(sigma < s_edges[0]) or np.any(sigma > s_edges[-1]):
            raise DomainError("arclength value outside the tabulated range")
        x = np.interp(sigma, s_edges, edges)
        spline = self._tables["spline"]
        for _ in range(4):
            x = x - (spline(x) - sigma) / np.sqrt(np.asarray(self.g(x), dtype=float))
            x = np.clip(x, edges[0], edges[-1])
        return x

    def sqrt_g(self, q):
        vals = np.asarray(self.g(q), dtype=float)
        if np.any(vals <= 0):
            raise ValueError("metric must be positive on its domain")
        return np.sqrt(vals)

    def s_range(self):
        if self.s is not None:
            lo, hi = float(self.s(self.lo)), float(self.s(self.hi))
        else:
            lo, hi = 0.0, float(self._tables["s_edges"][-1])
        return lo, hi


def metric_flat() -> Metric1D:
    """g = 1 on the line; arclength is the identity."""
    return Metric1D(g=lambda q: np.ones_like(np.asarray(q, dtype=float)),
                    domain="line", s=lambda q: q, s_inv=lambda s: s)


def metric_exp2q() -> Metric1D:
    """g = e^{2q}; arclength e^q > 0, so geodesics exit at X <= -1."""
    return Metric1D(g=lambda q: np.exp(2.0 * np.asarray(q, dtype=float)),
                    domain="line", s=np.exp,
                    s_inv=lambda s: np.log(np.asarray(s, dtype=float)))


def metric_circle(circumference: float = 1.0) -> Metric1D:
    """Flat metric on a circle of the given circumference."""
    return Metric1D(g=lambda q: np.ones_like(np.asarray(q, dtype=float)),
                    domain="circle", s=lambda q: q, s_inv=lambda s: s,
                    lo=0.0, hi=circumference, circumference=circumference)


@dataclass(frozen=True)
class FiberSymbol:
    """Samples of ft(q, v) on base x fiber grids, with compact-support data."""

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
        return tuple(RectBivariateSpline(self.base.points, self.fiber.points, part, kx=5, ky=5)
                     for part in (self.values.real, self.values.imag))

    def evaluate(self, q, v):
        """Evaluate at scattered points; zero outside the support radius.

        Only points with ``|v| <= support_radius`` are evaluated (closed
        form, else the spline pair, built once per symbol); both are
        pointwise, so this equals evaluating everywhere and masking.
        """
        q, v = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(v, dtype=float))
        inside = np.abs(v) <= self.support_radius
        q, v = q[inside], v[inside]
        out = np.zeros(inside.shape, dtype=complex)
        if self.symbol is not None:
            out[inside] = self.symbol(q, v)
        else:
            re, im = self._spline
            out[inside] = re.ev(q, v) + 1j * im.ev(q, v)
        return out


def _support_radius(values: np.ndarray, fiber: Grid1D, tol: float = 1e-12) -> float:
    mags = np.max(np.abs(values), axis=0)
    scale = mags.max()
    if scale == 0.0:
        return fiber.delta
    alive = np.abs(fiber.points[mags > tol * scale])
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
    if metric.domain == "circle":
        lo, _ = metric.s_range()
        length = metric.circumference
        return metric.arclength_inverse(lo + np.mod(target - lo, length))
    s_lo, s_hi = metric.s_range()
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
        length = metric.circumference
        diff = np.mod(sx - sxp + length / 2.0, length) - length / 2.0
        smid = sxp + diff / 2.0
        lo, _ = metric.s_range()
        smid = lo + np.mod(smid - lo, length)
    else:
        diff = sx - sxp
        smid = 0.5 * (sx + sxp)
    q = metric.arclength_inverse(smid)
    X = diff / (hbar * metric.sqrt_g(q))
    return q, X


def hbar_admissible(fsym: FiberSymbol, metric: Metric1D) -> float:
    """Largest hbar for which the support of ft maps inside the chart.

    On a circle the bound keeps geodesics within half the circumference;
    on the line/interval it keeps them inside the arclength range of the
    base grid.
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
    if metric.domain == "circle":
        # keep geodesic separations short of the antipodal cut
        bound = metric.circumference / (2.0 * root_g.max() * R)
        return float(bound)
    s_lo, s_hi = metric.s_range()
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


# The two names below exist only because benchmarks/tracer.py traces them
# by name; the kernels are already in the L^2(dx) frame, so the metric is unused.
def weighted_compose(a: OperatorKernel, b: OperatorKernel, metric: Metric1D) -> OperatorKernel:
    return compose(a, b)


def weighted_op_norm(kernel: OperatorKernel, metric: Metric1D) -> float:
    return op_norm(kernel)
