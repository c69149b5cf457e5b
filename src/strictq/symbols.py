"""Phase-space symbols with exact derivative closures.

Kernel construction evaluates symbols at off-grid midpoints through their
retained oracles, never by interpolation.  The axiom checks therefore
need oracles not only for the observables themselves but also for their
pointwise products and Poisson brackets.  :class:`SymbolField` packages a
callable together with its partial-derivative callables and closes the
small algebra required: sums, products, complex conjugation and the
canonical bracket.  The derivative closures follow the product rule, so
the resulting oracles are exact wherever the inputs are.

Gaussians have elementary derivatives; :func:`gaussian_field` supplies
them.  The windowed coordinate functions of the tests are built from
this algebra in ``tests/conftest.py``.
"""

from __future__ import annotations

import numpy as np

from .gaussian import GaussianObservable, gaussian_symbol

__all__ = [
    "SymbolField",
    "gaussian_field",
    "constant_field",
    "poisson_field",
]


class SymbolField:
    """A callable phase-space symbol bundled with its partial derivatives."""

    def __init__(self, f, dq, dp):
        self._f = f
        self._dq = dq
        self._dp = dp

    def __call__(self, q, p):
        return self._f(q, p)

    def dq(self, q, p):
        return self._dq(q, p)

    def dp(self, q, p):
        return self._dp(q, p)

    def __add__(self, other):
        other = _as_field(other)
        return SymbolField(
            lambda q, p: self(q, p) + other(q, p),
            lambda q, p: self.dq(q, p) + other.dq(q, p),
            lambda q, p: self.dp(q, p) + other.dp(q, p),
        )

    def __sub__(self, other):
        return self + (-1.0) * _as_field(other)

    def __mul__(self, other):
        if np.isscalar(other):
            c = other
            return SymbolField(
                lambda q, p: c * self(q, p),
                lambda q, p: c * self.dq(q, p),
                lambda q, p: c * self.dp(q, p),
            )
        other = _as_field(other)
        return SymbolField(
            lambda q, p: self(q, p) * other(q, p),
            lambda q, p: self.dq(q, p) * other(q, p) + self(q, p) * other.dq(q, p),
            lambda q, p: self.dp(q, p) * other(q, p) + self(q, p) * other.dp(q, p),
        )

    __rmul__ = __mul__
    __radd__ = __add__

    def conj(self):
        return SymbolField(
            lambda q, p: np.conj(self(q, p)),
            lambda q, p: np.conj(self.dq(q, p)),
            lambda q, p: np.conj(self.dp(q, p)),
        )


def _as_field(x) -> SymbolField:
    if isinstance(x, SymbolField):
        return x
    if np.isscalar(x):
        return constant_field(x)
    raise TypeError(f"cannot lift {type(x)!r} to a SymbolField")


def constant_field(c) -> SymbolField:
    zero = lambda q, p: np.zeros(np.broadcast(q, p).shape)
    return SymbolField(lambda q, p: c * np.ones(np.broadcast(q, p).shape), zero, zero)


def gaussian_field(g: GaussianObservable) -> SymbolField:
    """Gaussian observable as a symbol field with exact derivatives."""
    f = gaussian_symbol(g)
    return SymbolField(
        f,
        lambda q, p: -(q - g.q0) / g.alpha * f(q, p),
        lambda q, p: -(p - g.p0) / g.beta * f(q, p),
    )


def poisson_field(f: SymbolField, g: SymbolField) -> SymbolField:
    """Canonical bracket {f, g} as a plain field (derivatives not propagated)."""
    def bracket(q, p):
        return f.dq(q, p) * g.dp(q, p) - f.dp(q, p) * g.dq(q, p)

    def no_deriv(q, p):
        raise NotImplementedError("bracket fields do not carry second derivatives")

    return SymbolField(bracket, no_deriv, no_deriv)
