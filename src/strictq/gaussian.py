"""Closed-form Gaussian quantization and the positivity threshold.

The Gaussian observable centered at (q0, p0) with widths (alpha, beta),

    f(q, p) = 2 exp(-(q - q0)^2 / 2 alpha) exp(-(p - p0)^2 / 2 beta),

quantizes in closed form: its kernel factorizes into a rank-one part
built from a Gaussian wave packet chi and a coupling factor carrying
``Theta = (4 alpha beta / hbar^2 - 1)/(4 alpha)``.  The sign of Theta is
the whole story of positivity: at ``alpha beta = (hbar/2)^2`` the kernel
is exactly the projector onto (the conjugate of) chi; above threshold
the coupling factor is the Fourier transform of a Gaussian measure and
the operator is positive; below threshold the probe family

    psi_sigma(q) = (q - q0) exp(-(q - q0)^2 / 2 sigma) exp(i p0 q / hbar)

(orthogonal to the packet, phases matched so they cancel against the
kernel's) produces strictly negative expectation values.

The closed-form expectation in that family is

    <psi_sigma, Q(f) psi_sigma>
        = (2 beta / pi hbar^2)^(1/2) * 2 pi * Theta / D^(3/2),
    D = (1/sigma + 1/2 alpha) (1/sigma + 1/2 alpha + 2 Theta).

The exponent 1/2 and the power 3/2 were fixed against the brute-force
double-quadrature oracle (see the test suite), which is also how the
formula is validated on every run of the acceptance checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigvalsh

from .core import Grid1D
from .weyl import OperatorKernel, WaveFunction

__all__ = [
    "GaussianObservable",
    "PositivityIntermediates",
    "DegenerateParameterError",
    "gaussian_symbol",
    "chi_vector",
    "psi_sigma_vector",
    "gaussian_kernel_closed_form",
    "positivity_intermediates",
    "expectation_closed_form",
    "positivity_verdict",
]

#: Relative eigenvalue tolerance for the positivity verdict.
POSITIVITY_TOL = 1e-6


class DegenerateParameterError(ValueError):
    """Raised when the probe-family parameters make D vanish."""


@dataclass(frozen=True)
class GaussianObservable:
    """Phase-space Gaussian with center (q0, p0) and widths (alpha, beta)."""

    q0: float = 0.0
    p0: float = 0.0
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError(f"need alpha, beta > 0, got {self.alpha}, {self.beta}")


@dataclass(frozen=True)
class PositivityIntermediates:
    """The quantities Theta, D and the probe width sigma behind Eq.-level checks."""

    theta: float
    dee: float
    sigma: float


def gaussian_symbol(g: GaussianObservable):
    """Vectorized evaluation oracle ``(q, p) -> f(q, p)``."""

    def f(q, p):
        return (
            2.0
            * np.exp(-((q - g.q0) ** 2) / (2.0 * g.alpha))
            * np.exp(-((p - g.p0) ** 2) / (2.0 * g.beta))
        )

    return f


def chi_vector(g: GaussianObservable, hbar: float, qgrid: Grid1D) -> WaveFunction:
    """The wave packet whose rank-one kernel carries the Gaussian at threshold.

    ``|chi|^2`` integrates to ``2 sqrt(alpha beta) / hbar``.
    """
    if not hbar > 0:
        raise ValueError(f"need hbar > 0, got {hbar}")
    q = qgrid.points
    values = (
        (2.0 * g.beta / (np.pi * hbar**2)) ** 0.25
        * np.exp(-((q - g.q0) ** 2) / (4.0 * g.alpha))
        * np.exp(-1j * g.p0 * (q - g.q0) / hbar)
    )
    return WaveFunction(grid=qgrid, values=values)


def psi_sigma_vector(
    g: GaussianObservable, sigma: float, hbar: float, qgrid: Grid1D
) -> WaveFunction:
    """Probe state exhibiting negative expectations below threshold."""
    if not hbar > 0:
        raise ValueError(f"need hbar > 0, got {hbar}")
    q = qgrid.points
    values = (
        (q - g.q0)
        * np.exp(-((q - g.q0) ** 2) / (2.0 * sigma))
        * np.exp(1j * g.p0 * q / hbar)
    )
    return WaveFunction(grid=qgrid, values=values)


def gaussian_kernel_closed_form(
    g: GaussianObservable, hbar: float, qgrid: Grid1D
) -> OperatorKernel:
    """Closed-form kernel: rank-one packet part times the Theta coupling factor."""
    chi = chi_vector(g, hbar, qgrid).values
    q = qgrid.points
    theta = positivity_intermediates(g, 1.0, hbar).theta
    coupling = np.exp(-0.5 * theta * (q[:, None] - q[None, :]) ** 2)
    matrix = np.conj(chi)[:, None] * chi[None, :] * coupling
    return OperatorKernel(grid=qgrid, matrix=matrix, hbar=hbar)


def positivity_intermediates(
    g: GaussianObservable, sigma: float, hbar: float
) -> PositivityIntermediates:
    """Theta and D for the given probe width (D != 0 enforced)."""
    if not hbar > 0:
        raise ValueError(f"need hbar > 0, got {hbar}")
    theta = (4.0 * g.alpha * g.beta / hbar**2 - 1.0) / (4.0 * g.alpha)
    a = 1.0 / sigma + 1.0 / (2.0 * g.alpha)
    dee = a * (a + 2.0 * theta)
    if dee == 0.0 or a + 2.0 * theta == 0.0:
        raise DegenerateParameterError(
            f"degenerate probe: 1/sigma + 1/(2 alpha) + 2 Theta = {a + 2.0 * theta:g}"
        )
    return PositivityIntermediates(theta=theta, dee=dee, sigma=sigma)


def expectation_closed_form(g: GaussianObservable, sigma: float, hbar: float) -> float:
    """``<psi_sigma, Q(f) psi_sigma>`` in closed form; sign equals sign(Theta)."""
    inter = positivity_intermediates(g, sigma, hbar)
    pref = (2.0 * g.beta / (np.pi * hbar**2)) ** 0.5
    return float(pref * 2.0 * np.pi * inter.theta / inter.dee**1.5)


def positivity_verdict(g: GaussianObservable, hbar: float, qgrid: Grid1D) -> dict:
    """Minimum eigenvalue of the quantized Gaussian and the positivity verdict.

    The verdict tolerance scales with the largest eigenvalue magnitude,
    since the discrete eigenvalue floor is grid dependent.
    """
    kernel = gaussian_kernel_closed_form(g, hbar, qgrid)
    eigs = eigvalsh(kernel.matrix) * qgrid.delta
    min_eig = float(eigs[0])
    scale = float(np.max(np.abs(eigs)))
    return {
        "min_eigenvalue": min_eig,
        "positive": bool(min_eig >= -POSITIVITY_TOL * scale),
        "scale": scale,
    }
