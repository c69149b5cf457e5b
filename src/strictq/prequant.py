"""Exact symbolic prequantization on the torus.

The prequantization operator of an observable f on the area-N torus
(h = 1 units, connection adapted to the x-fibration) acts on sections by

    Q_N(f) phi = f phi - i/(2 pi N) [ d_y f (d_x phi - 2 pi i N y phi)
                                      - d_x f d_y phi ].

Everything here is exact symbol pushing: observables are finite Fourier
sums of ``e^{2 pi i (m x + k y)}``, the theta = 0 elements of
:mod:`strictq.rotation` (which also holds the bracket :func:`poisson_torus`
used here), and sections are finite sums of terms
``y^d e^{2 pi i (a x + b y)}``, held as ``{(a, b, d): coefficient}`` dicts.
That ring is closed under Q_N(f) (multiplication by y raises the degree d
by one), so Dirac's condition

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

Evaluation.  A batch of S sections is held on one dense complex block
``X[s, d, a - a0, b - b0]`` spanning the hull of the batch's support,
so Q_N(f) of one mode is a few whole-block operations (a shift in d for
y phi, the degree lowering d phi[d] for d_y, multiplication by a or b)
written into the output at offset (m, k).  Memory scales with the
hull, S * (degree + 1) * (a-span) * (b-span), not with the number of
terms: a few sections far apart in a or b cost a large, mostly zero
block.  The block reproduces the term-wise arithmetic of the tests'
dict oracle bit for bit, under two rules:

* a product with a general complex coefficient is formed as
  ``c.real * X + (1j * c.imag) * X``.  numpy's complex-by-complex
  product rounds differently from CPython's ``c * x`` (it disagrees in
  about half of random draws); with one real or purely imaginary factor
  one of the partial products is an exact zero, and both agree.
* sup norms use ``np.hypot(X.real, X.imag)``, which rounds as CPython's
  ``abs`` of a complex number; ``np.abs`` does not.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .rotation import TORUS_HBAR, RotAlgElement, poisson_torus, torus_observable

__all__ = [
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
]

#: Default cap on the y-polynomial degree of sections.
DEGREE_CAP = 8


class DegreeCapError(ValueError):
    """Raised when an operation would exceed the configured y-degree cap."""


def _check_degrees(keys) -> None:
    for (a, b, d) in keys:
        if d < 0:
            raise ValueError(f"negative y-degree in term ({a}, {b}, {d})")


def trig_section(terms: dict) -> dict:
    """The section with int keys (a, b, d >= 0) and complex coefficients; zeros
    are kept, as their degree counts against the cap."""
    out = {(int(a), int(b), int(d)): complex(c) for (a, b, d), c in terms.items()}
    _check_degrees(out)
    return out


def sin_x() -> RotAlgElement:
    return torus_observable({(1, 0): -0.5j, (-1, 0): 0.5j})


def cos_x() -> RotAlgElement:
    return torus_observable({(1, 0): 0.5, (-1, 0): 0.5})


def sin_y() -> RotAlgElement:
    return torus_observable({(0, 1): -0.5j, (0, -1): 0.5j})


def cos_y() -> RotAlgElement:
    return torus_observable({(0, 1): 0.5, (0, -1): 0.5})


class _Block(NamedTuple):
    """A batch of sections s as coefficients ``X[s, d, a - a0, b - b0]``.

    ``degree`` is the y-degree checked against the cap: the highest key
    degree of the packed sections (terms with a zero coefficient count,
    as they do in the dict terms), or None when it is read from the
    nonzero coefficients.
    """

    X: np.ndarray
    a0: int
    b0: int
    degree: int | None = None


def _pack(sections) -> _Block:
    keys = [key for phi in sections for key in phi]
    _check_degrees(keys)  # a raw dict's d = -1 would land in the top degree slot
    a0 = min((a for a, _, _ in keys), default=0)
    b0 = min((b for _, b, _ in keys), default=0)
    shape = (len(sections),
             max((d for _, _, d in keys), default=0) + 1,
             max((a for a, _, _ in keys), default=a0) - a0 + 1,
             max((b for _, b, _ in keys), default=b0) - b0 + 1)
    X = np.zeros(shape, dtype=complex)
    for s, phi in enumerate(sections):
        for (a, b, d), c in phi.items():
            X[s, d, a - a0, b - b0] = c
    return _Block(X, a0, b0, shape[1] - 1)


def _section(block: _Block) -> dict:
    """The first section of the block, as its nonzero terms."""
    X = block.X[0]
    return {(block.a0 + int(a), block.b0 + int(b), int(d)): complex(X[d, a, b])
            for d, a, b in zip(*np.nonzero(X))}


def _sup(X: np.ndarray) -> np.ndarray:
    # per-section largest |coefficient|; np.hypot rounds as CPython's abs
    return np.hypot(X.real, X.imag).max(axis=(1, 2, 3))


def _apply(f: RotAlgElement, phi: _Block, N: int, cap: int) -> _Block:
    """Q_N(f) on every section of the block (see :func:`prequant_apply`)."""
    if N < 1:
        raise ValueError(f"need N >= 1, got N={N}")
    X = phi.X
    S, D, A, B = X.shape
    if D > cap:  # only then can a degree + 1 exceed the cap
        degree = phi.degree
        if degree is None:
            present = np.flatnonzero(np.any(X != 0, axis=(0, 2, 3)))
            degree = int(present[-1]) if present.size else 0
        if degree + 1 > cap:
            raise DegreeCapError(f"y-degree {degree + 1} exceeds cap {cap}")
    ms = [m for m, _ in f.terms]
    ks = [k for _, k in f.terms]
    m0, k0 = min(ms, default=0), min(ks, default=0)
    if any(ks):  # multiplication by y raises the degree by one
        X = np.zeros((S, D + 1, A, B), dtype=complex)
        y_phi = np.zeros_like(X)
        X[:, :D] = y_phi[:, 1:] = phi.X
        D += 1
        phi_x = (2j * np.pi * np.arange(phi.a0, phi.a0 + A))[:, None] * X
    if any(ms):
        phi_y = (2j * np.pi * np.arange(phi.b0, phi.b0 + B)) * X
        phi_y[:, :-1] += np.arange(1, D)[:, None, None] * X[:, 1:]
    out = np.zeros((S, D, A + max(ms, default=0) - m0, B + max(ks, default=0) - k0),
                   dtype=complex)
    for (m, k), c in f.terms.items():
        # phi + (k/N) d_x phi - (k/N)(2 pi i N) y phi - (m/N) d_y phi, in that order
        inner = X
        if k != 0:
            kn = k / N
            ky = kn * (2j * np.pi * N)
            inner = inner + kn * phi_x - ky * y_phi
        if m != 0:
            inner = inner - (m / N) * phi_y
        c = complex(c)  # split so that each product rounds as CPython's c * x
        out[:, :, m - m0:m - m0 + A, k - k0:k - k0 + B] += c.real * inner + (1j * c.imag) * inner
    return _Block(out, phi.a0 + m0, phi.b0 + k0)


def _aligned(*blocks: _Block) -> list:
    """The blocks' coefficient arrays placed on their common hull."""
    a0 = min(blk.a0 for blk in blocks)
    b0 = min(blk.b0 for blk in blocks)
    shape = (blocks[0].X.shape[0], max(blk.X.shape[1] for blk in blocks),
             max(blk.a0 + blk.X.shape[2] for blk in blocks) - a0,
             max(blk.b0 + blk.X.shape[3] for blk in blocks) - b0)
    out = []
    for blk in blocks:
        _, D, A, B = blk.X.shape
        Y = np.zeros(shape, dtype=complex)
        Y[:, :D, blk.a0 - a0:blk.a0 - a0 + A, blk.b0 - b0:blk.b0 - b0 + B] = blk.X
        out.append(Y)
    return out


def prequant_apply(f: RotAlgElement, phi: dict, N: int, cap: int = DEGREE_CAP) -> dict:
    """Apply the prequantization operator of f to a section, exactly.

    For a single Fourier mode e^{2 pi i (m x + k y)} the operator reduces to

        e^{2 pi i (m x + k y)} [ phi + (k/N)(d_x phi - 2 pi i N y phi)
                                 - (m/N) d_y phi ],

    extended linearly over the modes of f.
    """
    return _section(_apply(f, _pack([phi]), N, cap))


def dirac_identity_check(f: RotAlgElement, g: RotAlgElement, N: int,
                         test_sections, cap: int = DEGREE_CAP) -> dict:
    """Residual of [Q(f), Q(g)] phi = i hbar Q({f, g}) phi over test sections.

    The residual is the largest coefficient of the difference, relative
    to the largest coefficient appearing on either side (floor 1), so a
    clean pass sits at the rounding level regardless of mode frequencies.
    """
    bracket = poisson_torus(f, g, N)
    sections = list(test_sections)
    if not sections:
        return {"max_residual": 0.0}
    phi = _pack(sections)
    fg, gf, br = _aligned(_apply(f, _apply(g, phi, N, cap), N, cap),
                          _apply(g, _apply(f, phi, N, cap), N, cap),
                          _apply(bracket, phi, N, cap))
    lhs = fg - gf
    rhs = (1j * TORUS_HBAR) * br
    scale = np.maximum(np.maximum(_sup(lhs), _sup(rhs)), 1.0)
    return {"max_residual": float(np.max(_sup(lhs - rhs) / scale))}


def sin_cos_anomaly(N: int, probe_range: int, pair: str = "x",
                    cap: int = DEGREE_CAP) -> dict:
    """Growth of Q^2(sin) + Q^2(cos) - 1 on probes of increasing frequency.

    ``pair='x'`` squares the operators of (sin 2 pi x, cos 2 pi x) and
    probes with sections e^{2 pi i a y}; ``pair='y'`` squares the y-pair
    and probes with e^{2 pi i a x}.  Returns the coefficient sup-norms of
    the residual for a = 1..probe_range; unboundedness shows up as
    growth without bound in a.
    """
    if pair not in ("x", "y"):
        raise ValueError(f"pair must be 'x' or 'y', got {pair!r}")
    s, c = (sin_x(), cos_x()) if pair == "x" else (sin_y(), cos_y())
    probes = [{(0, a, 0) if pair == "x" else (a, 0, 0): 1.0} for a in range(1, probe_range + 1)]
    if not probes:
        return {"growth": np.array([])}
    phi = _pack(probes)
    ss, cc, one = _aligned(_apply(s, _apply(s, phi, N, cap), N, cap),
                           _apply(c, _apply(c, phi, N, cap), N, cap), phi)
    return {"growth": _sup(ss + cc - one)}
