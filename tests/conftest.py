import numpy as np
import pytest
from hypothesis import settings
from scipy.special import erf

from strictq.core import Grid1D, Grid2D, sample
from strictq.gaussian import GaussianObservable, gaussian_kernel_closed_form, psi_sigma_vector
from strictq.symbols import SymbolField, gaussian_field
from strictq.weyl import WaveFunction

# property tests draw the same examples on every run and write no example
# database; some examples build dense oracles, so no per-example deadline
settings.register_profile("strictq", derandomize=True, deadline=None, database=None)
settings.load_profile("strictq")


@pytest.fixture(scope="session")
def box16():
    axis = Grid1D(-16.0, 16.0, 512)
    return Grid2D(axis, axis)


@pytest.fixture(scope="session")
def box8():
    axis = Grid1D(-8.0, 8.0, 256)
    return Grid2D(axis, axis)


def random_gaussians(seed, count, spread=1.0):
    """Deterministic corpus of Gaussian observables."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        out.append(GaussianObservable(
            q0=float(rng.uniform(-spread, spread)),
            p0=float(rng.uniform(-spread, spread)),
            alpha=float(rng.uniform(0.5, 2.0)),
            beta=float(rng.uniform(0.5, 2.0)),
        ))
    return out


def sampled_gaussian(obs, grid):
    return sample(gaussian_field(obs), grid)


def chi_vector(g: GaussianObservable, hbar: float, qgrid: Grid1D) -> WaveFunction:
    """The wave packet whose rank-one kernel carries the Gaussian at threshold.

    ``|chi|^2`` integrates to ``2 sqrt(alpha beta) / hbar``.
    """
    if not hbar > 0:
        raise ValueError(f"need hbar > 0, got {hbar}")
    q = qgrid.points
    values = (
        (2.0 * g.beta / np.pi) ** 0.25 / np.sqrt(hbar)
        * np.exp(-((q - g.q0) ** 2) / (4.0 * g.alpha))
        * np.exp(-1j * g.p0 * (q - g.q0) / hbar)
    )
    return WaveFunction(grid=qgrid, values=values)


def expectation_quadrature(g: GaussianObservable, sigma: float, hbar: float,
                           qgrid: Grid1D) -> float:
    """Brute-force double integral of ``<psi_sigma, Q(f) psi_sigma>``, the
    independent oracle of the closed-form expectation."""
    kernel = gaussian_kernel_closed_form(g, hbar, qgrid)
    psi = psi_sigma_vector(g, sigma, hbar, qgrid).values
    val = np.conj(psi) @ kernel.matrix @ psi * qgrid.delta**2
    return float(val.real)


def _erf_window(half_width: float, edge: float):
    # smooth plateau: 1 inside |t| < half_width, rolling off over ~edge
    def w(t):
        return 0.5 * (erf((t + half_width) / edge) - erf((t - half_width) / edge))

    def dw(t):
        norm = 1.0 / (edge * np.sqrt(np.pi))
        return norm * (
            np.exp(-((t + half_width) / edge) ** 2)
            - np.exp(-((t - half_width) / edge) ** 2)
        )

    return w, dw


def window_field(half_width: float = 6.0, edge: float = 0.8) -> SymbolField:
    """Smooth plateau window w(q) w(p), identically 1 deep in the interior."""
    w, dw = _erf_window(half_width, edge)
    return SymbolField(
        lambda q, p: w(q) * w(p),
        lambda q, p: dw(q) * w(p),
        lambda q, p: w(q) * dw(p),
    )


def coordinate_field(which: str, half_width: float = 6.0, edge: float = 0.8) -> SymbolField:
    """Windowed coordinate function q*w or p*w (Schwartz-type surrogate for q, p)."""
    w, dw = _erf_window(half_width, edge)
    if which == "q":
        return SymbolField(
            lambda q, p: q * w(q) * w(p),
            lambda q, p: (w(q) + q * dw(q)) * w(p),
            lambda q, p: q * w(q) * dw(p),
        )
    if which == "p":
        return SymbolField(
            lambda q, p: p * w(q) * w(p),
            lambda q, p: p * dw(q) * w(p),
            lambda q, p: (w(p) + p * dw(p)) * w(q),
        )
    raise ValueError(f"which must be 'q' or 'p', got {which!r}")


def spectral_derivative(values, axis, delta):
    """FFT first derivative along ``axis`` of the periodic extension; the
    sign-ambiguous even-n Nyquist mode is dropped."""
    n = values.shape[axis]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=delta)
    if n % 2 == 0:
        k[n // 2] = 0.0
    shape = [1] * values.ndim
    shape[axis] = n
    return np.fft.ifft(np.fft.fft(values, axis=axis) * (1j * k).reshape(shape), axis=axis)
