from fractions import Fraction
from math import gcd

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from strictq.rotation import (
    TORUS_HBAR,
    RotAlgElement,
    _phase,
    _u_pow_v_pow,
    center_check,
    convolve,
    dirac_defect,
    involution,
    poisson_torus,
    quantize_torus,
    rep_matrices,
    represent,
    rot_element,
    torus_observable,
)


def coprime_pairs(n_max):
    for N in range(1, n_max + 1):
        for K in range(1, N + 1):
            if gcd(K, N) == 1 and (K <= N / 2 or K == N == 1):
                yield N, K


def random_element(rng, theta, terms=6, span=8):
    out = {}
    for _ in range(terms):
        key = (int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)))
        re, im = rng.normal(size=2)
        out[key] = complex(re, im)
    return rot_element(theta, out)


def coeff_gap(a, b):
    return max((abs(a.coeff(*k) - b.coeff(*k)) for k in set(a.terms) | set(b.terms)),
               default=0.0)


def l1(a):
    # bounds the operator norm of every representation: U^m V^k is unitary
    return sum(abs(c) for c in a.terms.values())


coefficients = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
term_dicts = st.dictionaries(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), coefficients,
                             min_size=1, max_size=6)
thetas = st.one_of(st.sampled_from([0.0, 1.0 / 3.0, np.sqrt(2) - 1.0, 0.2, 5.0 / 7.0]),
                   st.floats(0.0, 1.0, exclude_max=True))
coprime_nk = st.integers(1, 16).flatmap(
    lambda N: st.sampled_from([(N, K) for K in range(1, N + 1) if gcd(K, N) == 1]))


# ------------------------------------------------------------------ phases

@settings(max_examples=200)
@given(n=st.integers(-10**9, 10**9), theta=thetas)
@example(n=56, theta=5.0 / 7.0)
def test_phase_reduced_exactly(n, theta):
    # oracle: n theta reduced mod 1 in rationals, the exponential at 30 digits
    exact = Fraction(n) * Fraction(theta)
    frac = exact - round(exact)
    with mpmath.workdps(30):
        ref = complex(mpmath.expjpi(2 * mpmath.mpf(frac.numerator) / frac.denominator))
    assert abs(_phase(n, theta) - ref) < 4.0 * np.finfo(float).eps


# ------------------------------------------------------------- convolution

def test_convolve_basis_examples():
    th = 0.37
    f10 = rot_element(th, {(1, 0): 1.0})
    f01 = rot_element(th, {(0, 1): 1.0})
    out = convolve(f10, f01)
    assert out.terms == {(1, 1): 1.0 + 0.0j}

    half = rot_element(0.5, {(0, 1): 1.0})
    other = rot_element(0.5, {(1, 0): 1.0})
    out2 = convolve(half, other)
    assert_allclose(out2.coeff(1, 1), -1.0)


def test_convolve_identity_element():
    rng = np.random.default_rng(5)
    th = 0.123
    one = rot_element(th, {(0, 0): 1.0})
    a = random_element(rng, th)
    left = convolve(one, a)
    right = convolve(a, one)
    for key, c in a.terms.items():
        assert_allclose(left.coeff(*key), c)
        assert_allclose(right.coeff(*key), c)


def test_convolve_theta_mismatch():
    with pytest.raises(ValueError):
        convolve(rot_element(0.25, {(0, 0): 1.0}), rot_element(0.5, {(0, 0): 1.0}))


def test_convolve_associative():
    rng = np.random.default_rng(17)
    for th in (0.0, 1.0 / 3.0, np.sqrt(2) - 1.0):
        a = random_element(rng, th)
        b = random_element(rng, th)
        c = random_element(rng, th)
        lhs = convolve(convolve(a, b), c)
        rhs = convolve(a, convolve(b, c))
        keys = set(lhs.terms) | set(rhs.terms)
        gap = max(abs(lhs.coeff(*k) - rhs.coeff(*k)) for k in keys)
        scale = max(lhs.sup_coeff(), 1.0)
        assert gap < 1e-13 * scale


@settings(max_examples=150)
@given(theta=thetas, a=term_dicts, b=term_dicts, c=term_dicts)
def test_convolve_associative_property(theta, a, b, c):
    a, b, c = (rot_element(theta, t) for t in (a, b, c))
    lhs = convolve(convolve(a, b), c)
    rhs = convolve(a, convolve(b, c))
    assert coeff_gap(lhs, rhs) < 1e-13 * max(lhs.sup_coeff(), 1.0)


def test_involution_examples():
    assert involution(rot_element(0.4, {(1, 0): 1.0})).terms == {(-1, 0): 1.0 - 0.0j}
    out = involution(rot_element(1.0 / 3.0, {(1, 1): 1.0}))
    assert_allclose(out.coeff(-1, -1), np.exp(2j * np.pi / 3.0))


def test_involution_involutive():
    rng = np.random.default_rng(2)
    a = random_element(rng, 0.61)
    back = involution(involution(a))
    for key, c in a.terms.items():
        assert abs(back.coeff(*key) - c) < 1e-15 * max(abs(c), 1.0)


def test_involution_anti_automorphism():
    rng = np.random.default_rng(3)
    for th in (0.2, 5.0 / 7.0):
        a = random_element(rng, th)
        b = random_element(rng, th)
        lhs = involution(convolve(a, b))
        rhs = convolve(involution(b), involution(a))
        keys = set(lhs.terms) | set(rhs.terms)
        gap = max(abs(lhs.coeff(*k) - rhs.coeff(*k)) for k in keys)
        assert gap < 1e-13 * max(lhs.sup_coeff(), 1.0)


@settings(max_examples=150)
@given(theta=thetas, a=term_dicts, b=term_dicts)
# phases rounded from the unreduced angle 2 pi n theta missed this by 1.7e-13
@example(theta=5.0 / 7.0, a={(6, 8): 1.0}, b={(7, 6): 1.0})
def test_involution_anti_automorphism_property(theta, a, b):
    a, b = rot_element(theta, a), rot_element(theta, b)
    assert coeff_gap(involution(involution(a)), a) < 1e-13 * max(a.sup_coeff(), 1.0)
    lhs = involution(convolve(a, b))
    rhs = convolve(involution(b), involution(a))
    assert coeff_gap(lhs, rhs) < 1e-13 * max(lhs.sup_coeff(), 1.0)


# ---------------------------------------------------------- representations

def test_rep_matrices_n2():
    rep = rep_matrices(2, 1)
    assert_allclose(rep.U, np.diag([1.0, -1.0]), atol=1e-15)
    assert_allclose(rep.V, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15)
    assert_allclose(rep.V @ rep.U, -rep.U @ rep.V, atol=1e-15)


def test_rep_matrices_orders():
    for N in range(2, 9):
        rep = rep_matrices(N, 1)
        assert np.max(np.abs(np.linalg.matrix_power(rep.U, N) - np.eye(N))) < 1e-14
        assert np.max(np.abs(np.linalg.matrix_power(rep.V, N) - np.eye(N))) < 1e-14


def test_rep_matrices_trivial_and_invalid():
    rep = rep_matrices(1, 1)
    assert_allclose(rep.U, np.eye(1))
    assert_allclose(rep.V, np.eye(1))
    with pytest.raises(ValueError):
        rep_matrices(4, 2)
    with pytest.raises(ValueError):
        rep_matrices(0, 1)


def test_represent_generators_and_theta_guard():
    rep = rep_matrices(5, 2)
    th = rep.theta
    assert_allclose(represent(rot_element(th, {(1, 0): 1.0}), rep), rep.U)
    assert_allclose(represent(rot_element(th, {(0, 1): 1.0}), rep), rep.V)
    with pytest.raises(ValueError):
        represent(rot_element(0.123, {(0, 0): 1.0}), rep)


def test_represent_homomorphism_and_star():
    rng = np.random.default_rng(11)
    for N, K in coprime_pairs(16):
        rep = rep_matrices(N, K)
        a = random_element(rng, rep.theta, terms=4, span=4)
        b = random_element(rng, rep.theta, terms=4, span=4)
        ra, rb = represent(a, rep), represent(b, rep)
        assert np.max(np.abs(represent(convolve(a, b), rep) - ra @ rb)) < 1e-12
        assert np.max(np.abs(represent(involution(a), rep) - ra.conj().T)) < 1e-12


@settings(max_examples=100)
@given(nk=coprime_nk, a=term_dicts, b=term_dicts)
def test_represent_star_homomorphism_property(nk, a, b):
    rep = rep_matrices(*nk)
    a, b = rot_element(rep.theta, a), rot_element(rep.theta, b)
    ra, rb = represent(a, rep), represent(b, rep)
    scale = max(l1(a) * l1(b), 1.0)
    assert np.max(np.abs(represent(convolve(a, b), rep) - ra @ rb)) < 1e-13 * scale
    assert np.max(np.abs(represent(involution(a), rep) - ra.conj().T)) < 1e-13 * max(l1(a), 1.0)


def test_generator_relations_represented():
    # F01 * F10 - e^{2 pi i theta} F10 * F01 represents to zero
    for N, K in coprime_pairs(12):
        rep = rep_matrices(N, K)
        th = rep.theta
        lhs = convolve(rot_element(th, {(0, 1): 1.0}), rot_element(th, {(1, 0): 1.0}))
        rhs = convolve(rot_element(th, {(1, 0): 1.0}), rot_element(th, {(0, 1): 1.0}))
        diff = lhs - np.exp(2j * np.pi * th) * rhs
        assert np.max(np.abs(represent(diff, rep))) < 1e-14


def test_unitarity_and_commutation_to_32():
    for N, K in coprime_pairs(32):
        rep = rep_matrices(N, K)
        assert np.max(np.abs(rep.U @ rep.U.conj().T - np.eye(N))) < 1e-14
        assert np.max(np.abs(rep.V @ rep.V.conj().T - np.eye(N))) < 1e-14
        gap = rep.V @ rep.U - np.exp(2j * np.pi * K / N) * rep.U @ rep.V
        assert np.max(np.abs(gap)) < 1e-14


# ------------------------------------------------------------- quantization

def test_quantize_identity_mode():
    assert_allclose(quantize_torus(torus_observable({(0, 0): 1.0}), 6, 1), np.eye(6))


def test_quantize_matches_multiplication_translation_path():
    # K = 1 quantization coincides with the polarized-section construction
    N = 8
    for m in range(-3, 4):
        for n in range(-3, 4):
            lhs = quantize_torus(torus_observable({(m, n): 1.0}), N, 1)
            mult = multiplication_action(torus_observable({(m, 0): 1.0}), N)
            rhs = np.exp(1j * np.pi * m * n / N) * mult @ translation_action(n, N)
            assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_quantize_real_observable_hermitian():
    f = torus_observable({(2, 1): 1 + 2j, (-2, -1): 1 - 2j, (1, -3): 0.5j,
                          (-1, 3): -0.5j, (0, 0): 0.7})
    assert f.is_real()
    for N, K in ((5, 1), (12, 5), (16, 3)):
        Q = quantize_torus(f, N, K)
        assert np.max(np.abs(Q - Q.conj().T)) < 1e-13


@settings(max_examples=100)
@given(nk=coprime_nk, terms=term_dicts)
def test_quantize_real_observable_hermitian_property(nk, terms):
    f = torus_observable(terms)
    real = f + involution(f)
    assert real.is_real()
    Q = quantize_torus(real, *nk)
    assert np.max(np.abs(Q - Q.conj().T)) < 1e-13 * max(l1(real), 1.0)
    # and its symbol is a real-valued function
    xs = np.linspace(0.0, 1.0, 7)
    assert np.max(np.abs(np.imag(real(xs[:, None], xs[None, :])))) < 1e-13 * max(l1(real), 1.0)


def test_is_real_means_fixed_by_involution():
    assert not torus_observable({(1, 0): 1.0}).is_real()
    assert torus_observable({(1, 0): 1.0, (-1, 0): 1.0}).is_real()
    assert not torus_observable({(0, 0): 1j}).is_real()
    # at theta != 0, F[1, 1] + F[1, 1]^* is self-adjoint but not F[1, 1] + F[-1, -1]
    th = 0.25
    a = rot_element(th, {(1, 1): 1.0})
    assert (a + involution(a)).is_real()
    b = rot_element(th, {(1, 1): 1.0, (-1, -1): 1.0})
    assert not b.is_real() and (involution(b) - b).sup_coeff() > 1e-3


def test_quantize_rejects_deformed_elements():
    with pytest.raises(ValueError, match="theta = 0"):
        quantize_torus(rot_element(0.5, {(1, 0): 1.0}), 2, 1)


# ------------------------------------------------------------- Dirac defect

def test_dirac_defect_scalar_examples():
    # mn = 2N: the sine vanishes and the scalar is 4 pi i
    out = dirac_defect(2, 8, 8)
    assert_allclose(out["scalar"], 4j * np.pi)
    # large N: |scalar| ~ pi^3/(3 N^3) for m = n = 1 (Taylor oracle)
    N = 512
    scalar = abs(dirac_defect(1, 1, N)["scalar"])
    assert abs(scalar * N**3 - np.pi**3 / 3.0) / (np.pi**3 / 3.0) < 2e-6


def test_dirac_defect_direct_matches_closed_form():
    for N in range(1, 17):
        for m in range(1, 5):
            for n in range(1, 5):
                out = dirac_defect(m, n, N)
                assert np.max(np.abs(out["direct"] - out["matrix"])) < 1e-12


@pytest.mark.parametrize("N,K", [(7, 3), (8, 3), (5, 2)])
def test_dirac_defect_in_twisted_representation(N, K):
    # in the theta = K/N representation the sine carries K; the direct
    # commutator of the representation matrices is the oracle
    for m in range(1, 4):
        for n in range(1, 4):
            out = dirac_defect(m, n, N, K)
            assert_allclose(out["scalar"], 2j * (m * n * np.pi / N - np.sin(m * n * K * np.pi / N)))
            assert np.max(np.abs(out["direct"] - out["matrix"])) < 1e-12
    assert abs(dirac_defect(1, 1, N, K)["scalar"]) != abs(dirac_defect(1, 1, N)["scalar"])


def test_dirac_defect_scaling_limit():
    scalar = abs(dirac_defect(1, 1, 64)["scalar"])
    assert abs(scalar * 64**3 - np.pi**3 / 3.0) / (np.pi**3 / 3.0) < 0.01


def test_poisson_torus_convention():
    # bracket carries 1/N and the mode indices add
    br = poisson_torus(torus_observable({(2, 0): 1.0}), torus_observable({(0, 3): 1.0}), 5)
    assert set(br.terms) == {(2, 3)}
    assert_allclose(br.terms[(2, 3)], -(4 * np.pi**2 / 5) * 6)
    assert br.theta == 0.0
    assert TORUS_HBAR == pytest.approx(1.0 / (2 * np.pi))


@settings(max_examples=100)
@given(terms=term_dicts, N=st.integers(1, 8))
def test_poisson_torus_self_bracket_has_no_terms(terms, N):
    assert poisson_torus(torus_observable(terms), torus_observable(terms), N).terms == {}


# ------------------------------------------------------------------ actions

def multiplication_action(f, N: int) -> np.ndarray:
    """Quantization of an x-only observable: diagonal matrix of f(k/N).

    Fourier-sum observables are evaluated through the same integer-mod
    root-of-unity table as the representation matrices, so the diagonal
    agrees with ``quantize_torus`` bit for bit.
    """
    k = np.arange(N)
    if isinstance(f, RotAlgElement):
        if any(kk != 0 for (_, kk) in f.terms):
            raise ValueError("multiplication_action needs an observable depending on x only")
        roots = np.exp(2j * np.pi * np.arange(N) / N)
        values = np.zeros(N, dtype=complex)
        for (m, _), c in f.terms.items():
            values += c * roots[(m * k) % N]
    else:
        values = f(k / N)
    return np.diag(np.asarray(values, dtype=complex))


def translation_action(n: int, N: int) -> np.ndarray:
    """Unitary translation operator: basis vector k goes to k - n mod N."""
    return _u_pow_v_pow(rep_matrices(N, 1), 0, n)


def test_multiplication_action_examples():
    assert_allclose(multiplication_action(lambda x: np.ones_like(x), 5), np.eye(5))
    out = multiplication_action(torus_observable({(1, 0): 1.0}), 4)
    assert_allclose(np.diag(out), [1.0, 1j, -1.0, -1j], atol=1e-15)
    with pytest.raises(ValueError):
        multiplication_action(torus_observable({(1, 1): 1.0}), 4)


def test_multiplication_matches_quantization():
    for N in (3, 7, 12):
        for m in range(-4, 5):
            lhs = multiplication_action(torus_observable({(m, 0): 1.0}), N)
            rhs = quantize_torus(torus_observable({(m, 0): 1.0}), N, 1)
            assert np.max(np.abs(lhs - rhs)) == 0.0


def test_translation_action_examples():
    assert_allclose(translation_action(0, 6), np.eye(6))
    assert_allclose(translation_action(6, 6), np.eye(6))
    for N in (4, 9):
        rep = rep_matrices(N, 1)
        for n in range(1, N + 1):
            assert np.max(np.abs(translation_action(n, N)
                                 - np.linalg.matrix_power(rep.V, n))) < 1e-14


# ------------------------------------------------------------------- center

def test_center_elements():
    for N, K in ((4, 1), (8, 3), (9, 2)):
        for m, k in ((1, 0), (0, 1), (1, 1), (2, 1)):
            out = center_check(m * N, k * N, N, K)
            assert out["is_central"]
            assert abs(abs(out["scalar"]) - 1.0) < 1e-13
    for N in (2, 5, 8):
        assert not center_check(1, 0, N)["is_central"]
