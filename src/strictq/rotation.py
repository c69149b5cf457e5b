"""The universal rotation algebra, its representations, and torus quantization.

Elements of the algebra A_theta are finite linear combinations of basis
symbols ``F[m, k]`` (m, k integers) over a fixed deformation parameter
theta, multiplying by

    F[m, k] * F[m', k'] = e^{2 pi i m' k theta} F[m + m', k + k']

with involution ``F[m, k]^* = e^{2 pi i m k theta} F[-m, -k]`` and unit
``F[0, 0]``.  The generators ``u = F[1, 0]`` and ``v = F[0, 1]`` satisfy
``v u = e^{2 pi i theta} u v``.  The phases are evaluated from n theta
reduced mod 1 exactly, so they carry an error of about eps whatever the
size of n.

For rational ``theta = K/N`` (reduced) the algebra has an N-dimensional
irreducible representation by the clock matrix ``U`` (diagonal phases
``e^{2 pi i k / N}``) and the step-K shift matrix ``V``; ``represent``
sends ``F[m, k]`` to ``U^m V^k`` in that order.

Classical torus observables, the Fourier polynomials
``f(x, y) = sum c[m, k] e^{2 pi i (m x + k y)}``, are the theta = 0
elements: at theta = 0 the product is pointwise multiplication of the
functions and the involution is complex conjugation.  The torus
quantization map Q_N deforms this commutative algebra into the
theta = K/N representation, adding the symmetrizing phase,

    Q_N(e^{2 pi i (m x + k y)}) = e^{i pi m k K/N} U^m V^k,

which makes real observables go to Hermitian matrices.

Units on the area-N torus are fixed as h = 1, hbar = 1/(2 pi), with
Poisson bracket ``{f, g} = (1/N)(d_x f d_y g - d_y f d_x g)``; under this
convention the exact commutator defect of two exponentials is the scalar
``2 i (m n pi / N - sin(m n K pi / N))`` times the quantized product
exponential, which :func:`dirac_defect` verifies by direct matrix
computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum, gcd

import numpy as np

__all__ = [
    "RotAlgElement",
    "TorusRep",
    "TORUS_HBAR",
    "rot_element",
    "convolve",
    "involution",
    "rep_matrices",
    "represent",
    "torus_observable",
    "quantize_torus",
    "poisson_torus",
    "dirac_defect",
    "center_check",
]

#: Planck constant h = 1 on the torus; hbar = h / (2 pi).
TORUS_HBAR = 1.0 / (2.0 * np.pi)


def _clean(terms: dict) -> dict:
    return {key: c for key, c in terms.items() if c != 0.0}


@dataclass(frozen=True)
class RotAlgElement:
    """Finite combination of basis symbols F[m, k] at deformation theta."""

    theta: float
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.theta < 1.0:
            raise ValueError(f"need theta in [0, 1), got {self.theta}")
        for (m, k), c in self.terms.items():
            if not (isinstance(m, (int, np.integer)) and isinstance(k, (int, np.integer))):
                raise TypeError(f"term index ({m!r}, {k!r}) is not an integer pair")
            if not np.isfinite(c):
                raise ValueError(f"non-finite coefficient at ({m}, {k})")

    def coeff(self, m: int, k: int) -> complex:
        return self.terms.get((m, k), 0.0 + 0.0j)

    def __add__(self, other: "RotAlgElement") -> "RotAlgElement":
        if self.theta != other.theta:
            raise ValueError("cannot add elements with different theta")
        out = dict(self.terms)
        for mk, c in other.terms.items():
            out[mk] = out.get(mk, 0.0) + c
        return RotAlgElement(self.theta, _clean(out))

    def __sub__(self, other: "RotAlgElement") -> "RotAlgElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "RotAlgElement":
        return RotAlgElement(self.theta, _clean({mk: scalar * c for mk, c in self.terms.items()}))

    def sup_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __call__(self, x, y):
        """The symbol sum c[m, k] e^{2 pi i (m x + k y)} at the points (x, y)."""
        out = 0.0 + 0.0j
        for (m, k), c in self.terms.items():
            out = out + c * np.exp(2j * np.pi * (m * np.asarray(x) + k * np.asarray(y)))
        return out

    def is_real(self) -> bool:
        """Fixed by :func:`involution`; at theta = 0, a real-valued function."""
        star = involution(self)
        return all(star.coeff(*mk) == self.coeff(*mk)
                   for mk in self.terms.keys() | star.terms.keys())


def _split(x: float) -> tuple:
    # Veltkamp split: x = hi + lo exactly, halves short enough to multiply exactly
    t = 134217729.0 * x  # 2**27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _phase(n: int, theta: float) -> complex:
    """e^{2 pi i n theta}, with n theta reduced mod 1 exactly before exp.

    n theta is formed as the exact sum hi + lo (Dekker's two-product);
    subtracting the integer nearest hi is exact, so the angle passed to
    exp is below pi in size and carries an error of about eps, not
    eps * 2 pi |n theta|.
    """
    x = float(n)
    hi = x * theta
    xh, xl = _split(x)
    th, tl = _split(theta)
    lo = ((xh * th - hi) + xh * tl + xl * th) + xl * tl
    return np.exp(2j * np.pi * ((hi - round(hi)) + lo))


def rot_element(theta: float, terms: dict) -> RotAlgElement:
    """Convenience constructor: {(m, k): coefficient} at the given theta."""
    return RotAlgElement(theta, {(int(m), int(k)): complex(c) for (m, k), c in terms.items()})


def convolve(a: RotAlgElement, b: RotAlgElement) -> RotAlgElement:
    """Bilinear extension of F[m,k] * F[m',k'] = e^{2 pi i m' k theta} F[m+m', k+k']."""
    if a.theta != b.theta:
        raise ValueError(f"theta mismatch: {a.theta} vs {b.theta}")
    out: dict = {}
    th = a.theta
    for (m, k), c in a.terms.items():
        for (mp, kp), cp in b.terms.items():
            phase = _phase(mp * k, th)
            key = (m + mp, k + kp)
            out[key] = out.get(key, 0.0) + c * cp * phase
    return RotAlgElement(th, _clean(out))


def involution(a: RotAlgElement) -> RotAlgElement:
    """Conjugate-linear extension of F[m,k]^* = e^{2 pi i m k theta} F[-m,-k]."""
    out: dict = {}
    for (m, k), c in a.terms.items():
        out[(-m, -k)] = np.conj(c) * _phase(m * k, a.theta)
    return RotAlgElement(a.theta, _clean(out))


@dataclass(frozen=True)
class TorusRep:
    """The N-dimensional irreducible representation data for theta = K/N."""

    N: int
    K: int
    U: np.ndarray
    V: np.ndarray

    @property
    def theta(self) -> float:
        return (self.K % self.N) / self.N


def rep_matrices(N: int, K: int = 1) -> TorusRep:
    """Clock matrix U (phases e^{2 pi i k/N}) and step-K shift matrix V.

    Requires gcd(K, N) = 1 so that the representation is irreducible.
    """
    if N < 1 or K < 1:
        raise ValueError(f"need N >= 1 and K >= 1, got N={N}, K={K}")
    if gcd(K, N) != 1:
        raise ValueError(f"need gcd(K, N) = 1, got K={K}, N={N}")
    roots = np.exp(2j * np.pi * np.arange(N) / N)
    U = np.diag(roots)
    V = np.zeros((N, N), dtype=complex)
    V[(np.arange(N) - K) % N, np.arange(N)] = 1.0
    return TorusRep(N=N, K=K, U=U, V=V)


def _u_pow_v_pow(rep: TorusRep, m: int, k: int) -> np.ndarray:
    """U^m V^k assembled from integer phase indices (table-exact roots of unity)."""
    N = rep.N
    rows = np.arange(N)
    cols = (rows + k * rep.K) % N
    phases = np.exp(2j * np.pi * ((m * rows) % N) / N)
    out = np.zeros((N, N), dtype=complex)
    out[rows, cols] = phases
    return out


def _sum_modes(terms: dict, rep: TorusRep) -> np.ndarray:
    out = np.zeros((rep.N, rep.N), dtype=complex)
    for (m, k), c in terms.items():
        out += c * _u_pow_v_pow(rep, m, k)
    return out


def represent(a: RotAlgElement, rep: TorusRep) -> np.ndarray:
    """Sum of terms(m, k) * U^m V^k; requires a.theta = K/N reduced."""
    if abs(a.theta - rep.theta) > 1e-15:
        raise ValueError(f"element theta {a.theta} does not match rep K/N = {rep.theta}")
    return _sum_modes(a.terms, rep)


def torus_observable(terms: dict) -> RotAlgElement:
    """Fourier polynomial sum c[m, k] e^{2 pi i (m x + k y)}: the theta = 0 element."""
    return rot_element(0.0, terms)


def quantize_torus(f: RotAlgElement, N: int, K: int = 1) -> np.ndarray:
    """Q_N(f) = sum c[m, k] e^{i pi m k K/N} U^m V^k on the N-dimensional space.

    ``f`` is a classical observable (theta = 0); its image lives in the
    theta = K/N representation.
    """
    if f.theta != 0.0:
        raise ValueError(f"quantize_torus needs a theta = 0 observable, got theta={f.theta}")
    rep = rep_matrices(N, K)
    return _sum_modes({(m, k): c * np.exp(1j * np.pi * m * k * K / N)
                       for (m, k), c in f.terms.items()}, rep)


def poisson_torus(f: RotAlgElement, g: RotAlgElement, N: int) -> RotAlgElement:
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
    return RotAlgElement(0.0, out)


def dirac_defect(m: int, n: int, N: int, K: int = 1) -> dict:
    """Exact commutator defect of Q(e^{2 pi i m x}) and Q(e^{2 pi i n y}) at theta = K/N.

    Returns the closed-form scalar ``2i(m n pi/N - sin(m n K pi/N))``, the
    matrix ``scalar * Q(e^{2 pi i (m x + n y)})``, and the same quantity
    computed directly as ``[Q(f), Q(g)] - i hbar Q({f, g})`` from the
    representation matrices, for comparison.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got N={N}")
    scalar = 2j * (m * n * np.pi / N - np.sin(m * n * K * np.pi / N))
    f = torus_observable({(m, 0): 1.0})
    g = torus_observable({(0, n): 1.0})
    qmn = quantize_torus(torus_observable({(m, n): 1.0}), N, K)
    qf = quantize_torus(f, N, K)
    qg = quantize_torus(g, N, K)
    qbr = quantize_torus(poisson_torus(f, g, N), N, K)
    direct = (qf @ qg - qg @ qf) - 1j * TORUS_HBAR * qbr
    return {"scalar": scalar, "matrix": scalar * qmn, "direct": direct}


def center_check(m: int, k: int, N: int, K: int = 1) -> dict:
    """Test whether F[m, k] represents as a scalar commuting with U and V.

    Elements with both indices multiples of N are central and represent
    as unimodular scalars; anything else fails the commutation test for
    N >= 2.
    """
    rep = rep_matrices(N, K)
    mat = represent(rot_element(rep.theta, {(m, k): 1.0}), rep)
    scalar = complex(mat[0, 0])
    comm_u = np.max(np.abs(mat @ rep.U - rep.U @ mat))
    comm_v = np.max(np.abs(mat @ rep.V - rep.V @ mat))
    off = np.max(np.abs(mat - scalar * np.eye(N)))
    is_central = bool(max(comm_u, comm_v, off) <= 1e-13 * max(abs(scalar), 1.0))
    return {"is_central": is_central, "scalar": scalar}
