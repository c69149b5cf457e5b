"""Closed-form Gaussian quantization and the positivity threshold.

The Gaussian observable centered at (q0, p0) with widths (alpha, beta),

    f(q, p) = 2 exp(-(q - q0)^2 / 2 alpha) exp(-(p - p0)^2 / 2 beta),

quantizes in closed form: its kernel factorizes into a rank-one part
built from a Gaussian wave packet chi and a coupling factor carrying
``Theta = (4 alpha beta / hbar^2 - 1)/(4 alpha)``.  The kernel is built
from the one exponent of that product, which stays bounded for every
Theta, and only on a grid that resolves chi (:func:`_packet_floor`).
The sign of Theta is the whole story of positivity: at
``alpha beta = (hbar/2)^2`` the kernel is exactly the projector onto
(the conjugate of) chi; above threshold the coupling factor is the
Fourier transform of a Gaussian measure and the operator is positive;
below threshold the probe family

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

from .core import DECAY_HARD_LIMIT, DecayError, Grid1D, boundary_decay
from .weyl import AliasingError, OperatorKernel, WaveFunction, _blas_threads

__all__ = [
    "GaussianObservable",
    "PositivityIntermediates",
    "DegenerateParameterError",
    "gaussian_symbol",
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
        if not np.all(np.isfinite([self.q0, self.p0, self.alpha, self.beta])):
            raise ValueError(f"need finite q0, p0, alpha, beta, got {self.q0}, {self.p0}, "
                             f"{self.alpha}, {self.beta}")
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


def _packet_floor(g: GaussianObservable, qgrid: Grid1D) -> float:
    """Smallest hbar at which ``qgrid`` resolves the packet chi of ``g``.

    chi is a Gaussian of width ``w = sqrt(2 alpha)`` on the carrier wave
    ``e^{-i p0 q/hbar}``; its wavenumbers ``|k + p0/hbar| <= pi/w`` must lie
    in the grid's band ``|k| <= pi/dq``.  So w must exceed the spacing (else
    no hbar resolves chi: ``inf``), and hbar must keep the carrier inside
    what the envelope leaves of the band.
    """
    width = np.sqrt(2.0 * g.alpha)
    if not width > qgrid.delta:
        return np.inf
    return abs(g.p0) / (np.pi / qgrid.delta - np.pi / width)


def gaussian_kernel_closed_form(
    g: GaussianObservable, hbar: float, qgrid: Grid1D
) -> OperatorKernel:
    """Closed-form kernel: the packet part times the Theta coupling factor,
    from one exponent.

    With ``m = (q + q')/2 - q0`` and ``d = q - q'``,
    ``conj(chi(q)) chi(q') e^{-Theta d^2/2}`` is
    ``sqrt(2 beta/pi)/hbar e^{-m^2/(2 alpha) - beta (d/hbar)^2/2 + i p0 d/hbar}``,
    whose real exponent is negative definite for every alpha, beta > 0
    whatever the sign of Theta; hbar^2 is never formed, and the kernel is
    real when p0 = 0.  A grid that does
    not resolve the packet (:func:`_packet_floor`) raises
    :class:`AliasingError`, and a q-box that truncates it, its first or
    last row holding more than ``DECAY_HARD_LIMIT`` of the largest entry,
    raises :class:`DecayError`.
    """
    if not hbar > 0:
        raise ValueError(f"need hbar > 0, got {hbar}")
    floor = _packet_floor(g, qgrid)
    if not hbar >= floor:
        why = (f"the carrier p0/hbar of the packet leaves the band of the grid spacing "
               f"{qgrid.delta:g}; minimal usable hbar on this grid is {floor:g}")
        if floor == np.inf:
            why = (f"the packet of width sqrt(2 alpha) = {np.sqrt(2.0 * g.alpha):g} is "
                   f"narrower than the grid spacing {qgrid.delta:g}; no hbar resolves it "
                   "at this alpha")
        raise AliasingError(f"hbar={hbar:g} unresolved: {why}", hbar_min=floor)
    x = qgrid.points - g.q0
    m = 0.5 * (x[:, None] + x[None, :])
    d = (x[:, None] - x[None, :]) / hbar
    exponent = -(m * m) / (2.0 * g.alpha) - 0.5 * g.beta * (d * d)
    if g.p0:
        exponent = exponent + 1j * g.p0 * d
    matrix = np.sqrt(2.0 * g.beta / np.pi) / hbar * np.exp(exponent)
    decay = boundary_decay(matrix, axis=0)
    if decay > DECAY_HARD_LIMIT:
        raise DecayError(f"the q-box [{qgrid.lo:g}, {qgrid.hi:g}) truncates the packet: its "
                         f"edge rows hold {decay:.2e} of the kernel's largest entry")
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
    pref = np.sqrt(2.0 * g.beta / np.pi) / hbar
    return float(pref * 2.0 * np.pi * inter.theta / inter.dee**1.5)


def positivity_verdict(g: GaussianObservable, hbar: float, qgrid: Grid1D) -> dict:
    """Minimum eigenvalue of the quantized Gaussian and the positivity verdict.

    The verdict tolerance scales with the largest eigenvalue magnitude,
    since the discrete eigenvalue floor is grid dependent.
    """
    kernel = gaussian_kernel_closed_form(g, hbar, qgrid)
    with _blas_threads(qgrid.n):
        eigs = eigvalsh(kernel.matrix) * qgrid.delta
    min_eig = float(eigs[0])
    scale = float(np.max(np.abs(eigs)))
    return {
        "min_eigenvalue": min_eig,
        "positive": bool(min_eig >= -POSITIVITY_TOL * scale),
        "scale": scale,
    }
