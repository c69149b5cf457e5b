"""Exact symbolic prequantization on the torus.

The prequantization operator of an observable f on the area-N torus
(h = 1 units, connection adapted to the x-fibration) acts on sections by

    Q_N(f) phi = f phi - i/(2 pi N) [ d_y f (d_x phi - 2 pi i N y phi)
                                      - d_x f d_y phi ].

Everything here is exact symbol pushing: observables are finite Fourier
sums ``e^{2 pi i (m x + k y)}`` and sections are finite sums of terms
``y^d e^{2 pi i (a x + b y)}``.  That ring is closed under Q_N(f)
(multiplication by y raises the degree d by one), so Dirac's condition

    [Q_N(f), Q_N(g)] = i hbar Q_N({f, g}),
    hbar = 1/(2 pi),  {f, g} = (1/N)(d_x f d_y g - d_y f d_x g)

is a term-by-term identity that can be checked to rounding.  Sections
need not satisfy the quasi-periodicity of the full prequantum space:
the condition is a local differential-operator identity, so the
polynomial-times-exponential ring suffices and no theta-function basis
is needed.

The price of prequantizing everything is an anomaly in the
multiplicative structure: the operator

    R = Q_N(sin 2 pi x)^2 + Q_N(cos 2 pi x)^2 - 1

works out to ``-(1/N^2) d^2/dy^2``, unbounded on any space containing
sections of growing y-frequency.  :func:`sin_cos_anomaly` exhibits the
growth by applying R to probe sections oscillating in the conjugate
variable (x-only probes are annihilated by R, so the x-pair is probed
with ``e^{2 pi i a y}`` and the y-pair with ``e^{2 pi i a x}``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum

import numpy as np

from .rotation import TORUS_HBAR, TorusObservable, torus_observable

__all__ = [
    "TrigSection",
    "DegreeCapError",
    "DEGREE_CAP",
    "trig_section",
    "sin_x",
    "cos_x",
    "sin_y",
    "cos_y",
    "prequant_apply",
    "poisson_torus",
    "dirac_identity_check",
    "sin_cos_anomaly",
    "inner_product",
]

#: Default cap on the y-polynomial degree of sections.
DEGREE_CAP = 8


class DegreeCapError(ValueError):
    """Raised when an operation would exceed the configured y-degree cap."""


def _clean(terms: dict) -> dict:
    return {key: c for key, c in terms.items() if c != 0.0}


def _d_x(terms: dict) -> dict:
    return _clean({(a, b, d): 2j * np.pi * a * c for (a, b, d), c in terms.items()})


def _d_y(terms: dict) -> dict:
    out: dict = {}
    for (a, b, d), c in terms.items():
        if d > 0:
            key = (a, b, d - 1)
            out[key] = out.get(key, 0.0) + c * d
        key = (a, b, d)
        out[key] = out.get(key, 0.0) + 2j * np.pi * b * c
    return _clean(out)


def _mul_y(terms: dict, cap: int) -> dict:
    degree = max((d for (_, _, d) in terms), default=0)
    if degree + 1 > cap:
        raise DegreeCapError(f"y-degree {degree + 1} exceeds cap {cap}")
    return {(a, b, d + 1): c for (a, b, d), c in terms.items()}


@dataclass(frozen=True)
class TrigSection:
    """Finite sum of terms coeff * y^d * e^{2 pi i (a x + b y)}.

    Keys of ``terms`` are integer triples (a, b, d) with d >= 0.
    """

    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        for (a, b, d) in self.terms:
            if d < 0:
                raise ValueError(f"negative y-degree in term ({a}, {b}, {d})")

    def __add__(self, other: "TrigSection") -> "TrigSection":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
        return TrigSection(_clean(out))

    def __sub__(self, other: "TrigSection") -> "TrigSection":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "TrigSection":
        return TrigSection(_clean({k: scalar * c for k, c in self.terms.items()}))

    def conj(self) -> "TrigSection":
        return TrigSection({(-a, -b, d): np.conj(c) for (a, b, d), c in self.terms.items()})

    def sup_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def degree(self) -> int:
        return max((d for (_, _, d) in self.terms), default=0)

    # term-wise calculus
    def d_x(self) -> "TrigSection":
        return TrigSection(_d_x(self.terms))

    def d_y(self) -> "TrigSection":
        return TrigSection(_d_y(self.terms))

    def mul_y(self, cap: int = DEGREE_CAP) -> "TrigSection":
        return TrigSection(_mul_y(self.terms, cap))

    def mul_exp(self, m: int, k: int) -> "TrigSection":
        return TrigSection({(a + m, b + k, d): c for (a, b, d), c in self.terms.items()})


def trig_section(terms: dict) -> TrigSection:
    """Constructor from {(a, b, d): coefficient}."""
    return TrigSection({(int(a), int(b), int(d)): complex(c)
                        for (a, b, d), c in terms.items()})


def sin_x() -> TorusObservable:
    return torus_observable({(1, 0): -0.5j, (-1, 0): 0.5j})


def cos_x() -> TorusObservable:
    return torus_observable({(1, 0): 0.5, (-1, 0): 0.5})


def sin_y() -> TorusObservable:
    return torus_observable({(0, 1): -0.5j, (0, -1): 0.5j})


def cos_y() -> TorusObservable:
    return torus_observable({(0, 1): 0.5, (0, -1): 0.5})


def prequant_apply(f: TorusObservable, phi: TrigSection, N: int,
                   cap: int = DEGREE_CAP) -> TrigSection:
    """Apply the prequantization operator of f to a section, exactly.

    For a single Fourier mode e^{2 pi i (m x + k y)} the operator reduces to

        e^{2 pi i (m x + k y)} [ phi + (k/N)(d_x phi - 2 pi i N y phi)
                                 - (m/N) d_y phi ],

    extended linearly over the modes of f.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got N={N}")
    phi_x = _d_x(phi.terms)
    phi_y = _d_y(phi.terms)
    y_phi = _mul_y(phi.terms, cap)
    out: dict = {}
    for (m, k), c in f.terms.items():
        # per key: phi + (k/N) d_x phi - (k/N)(2 pi i N) y phi - (m/N) d_y phi
        inner = dict(phi.terms)
        if k != 0:
            kn = k / N
            ky = kn * (2j * np.pi * N)
            for key, x in phi_x.items():
                inner[key] = inner.get(key, 0.0) + kn * x
            for key, x in y_phi.items():
                inner[key] = inner.get(key, 0.0) - ky * x
        if m != 0:
            mn = m / N
            for key, x in phi_y.items():
                inner[key] = inner.get(key, 0.0) - mn * x
        for (a, b, d), x in inner.items():
            key = (a + m, b + k, d)
            out[key] = out.get(key, 0.0) + c * x
    return TrigSection(_clean(out))


def poisson_torus(f: TorusObservable, g: TorusObservable, N: int) -> TorusObservable:
    """Bracket on the area-N torus: (1/N)(d_x f d_y g - d_y f d_x g), exact.

    Per-mode contributions are accumulated with exactly rounded sums, so
    antisymmetric cancellations (e.g. {f, f} = 0) come out as true zeros.
    """
    parts: dict = {}
    base = -(4.0 * np.pi**2 / N)
    for (m1, k1), c1 in f.terms.items():
        for (m2, k2), c2 in g.terms.items():
            # factor first, complex product last: swapped pairs then cancel
            # exactly (complex multiplication is commutative bit for bit)
            coeff = (base * (m1 * k2 - k1 * m2)) * (c1 * c2)
            if coeff != 0.0:
                parts.setdefault((m1 + m2, k1 + k2), []).append(coeff)
    out = {}
    for key, vals in parts.items():
        total = complex(fsum(v.real for v in vals), fsum(v.imag for v in vals))
        if total != 0.0:
            out[key] = total
    return TorusObservable(out)


def dirac_identity_check(f: TorusObservable, g: TorusObservable, N: int,
                         test_sections, cap: int = DEGREE_CAP) -> dict:
    """Residual of [Q(f), Q(g)] phi = i hbar Q({f, g}) phi over test sections.

    The residual is the largest coefficient of the difference, relative
    to the largest coefficient appearing on either side (floor 1), so a
    clean pass sits at the rounding level regardless of mode frequencies.
    """
    bracket = poisson_torus(f, g, N)
    max_resid = 0.0
    for phi in test_sections:
        lhs = (
            prequant_apply(f, prequant_apply(g, phi, N, cap), N, cap)
            - prequant_apply(g, prequant_apply(f, phi, N, cap), N, cap)
        )
        rhs = (1j * TORUS_HBAR) * prequant_apply(bracket, phi, N, cap)
        scale = max(lhs.sup_coeff(), rhs.sup_coeff(), 1.0)
        max_resid = max(max_resid, (lhs - rhs).sup_coeff() / scale)
    return {"max_residual": max_resid}


def sin_cos_anomaly(N: int, probe_range: int, pair: str = "x",
                    cap: int = DEGREE_CAP) -> dict:
    """Growth of Q^2(sin) + Q^2(cos) - 1 on probes of increasing frequency.

    ``pair='x'`` squares the operators of (sin 2 pi x, cos 2 pi x) and
    probes with sections e^{2 pi i a y}; ``pair='y'`` squares the y-pair
    and probes with e^{2 pi i a x}.  Returns the coefficient sup-norms of
    the residual for a = 1..probe_range; unboundedness shows up as
    growth without bound in a.
    """
    if pair == "x":
        s, c = sin_x(), cos_x()
        probe = lambda a: trig_section({(0, a, 0): 1.0})
    elif pair == "y":
        s, c = sin_y(), cos_y()
        probe = lambda a: trig_section({(a, 0, 0): 1.0})
    else:
        raise ValueError(f"pair must be 'x' or 'y', got {pair!r}")
    growth = []
    for a in range(1, probe_range + 1):
        phi = probe(a)
        r = (
            prequant_apply(s, prequant_apply(s, phi, N, cap), N, cap)
            + prequant_apply(c, prequant_apply(c, phi, N, cap), N, cap)
            - phi
        )
        growth.append(r.sup_coeff())
    return {"growth": np.array(growth)}


def _moment(d: int, b: int) -> complex:
    # exact integral of y^d e^{2 pi i b y} over [0, 1], integer b
    if b == 0:
        return 1.0 / (d + 1)
    if d == 0:
        return 0.0
    # integration by parts; e^{2 pi i b} = 1 for integer b
    return (1.0 - d * _moment(d - 1, b)) / (2j * np.pi * b)


def inner_product(phi: TrigSection, psi: TrigSection) -> complex:
    """Exact torus inner product <phi, psi> = int conj(phi) psi dx dy."""
    total = 0.0 + 0.0j
    for (a1, b1, d1), c1 in phi.terms.items():
        for (a2, b2, d2), c2 in psi.terms.items():
            if a1 != a2:
                continue
            total += np.conj(c1) * c2 * _moment(d1 + d2, b2 - b1)
    return complex(total)
