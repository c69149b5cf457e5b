import numpy as np
import pytest
from hypothesis import settings

from strictq.core import Grid1D, Grid2D, sample
from strictq.gaussian import GaussianObservable
from strictq.symbols import gaussian_field

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
