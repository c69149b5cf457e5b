import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strictq.prequant import (
    DEGREE_CAP,
    DegreeCapError,
    cos_x,
    cos_y,
    dirac_identity_check,
    poisson_torus,
    prequant_apply,
    sin_cos_anomaly,
    sin_x,
    sin_y,
    trig_section,
)
from strictq.rotation import TORUS_HBAR, torus_observable


def random_observable(rng, span=2, terms=3):
    out = {}
    for _ in range(terms):
        key = (int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)))
        re, im = rng.normal(size=2)
        out[key] = complex(re, im)
    return torus_observable(out)


def random_section(rng, span=2, max_deg=2, terms=3):
    out = {}
    for _ in range(terms):
        key = (int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)),
               int(rng.integers(0, max_deg + 1)))
        re, im = rng.normal(size=2)
        out[key] = complex(re, im)
    return trig_section(out)


# ------------------------------------------------- dict oracle of the operator
# Sections are {(a, b, d): coefficient} dicts.  The term-wise arithmetic below
# (a zero sum drops its key) is the reference that prequant's block evaluation
# reproduces bit for bit.

def clean(phi):
    return {key: c for key, c in phi.items() if c != 0.0}


def add(phi, psi):
    out = dict(phi)
    for key, c in psi.items():
        out[key] = out.get(key, 0.0) + c
    return clean(out)


def scale(s, phi):
    return clean({key: s * c for key, c in phi.items()})


def sub(phi, psi):
    return add(phi, scale(-1.0, psi))


def sup_coeff(phi):
    return max((abs(c) for c in phi.values()), default=0.0)


def d_x(phi):
    return clean({(a, b, d): 2j * np.pi * a * c for (a, b, d), c in phi.items()})


def d_y(phi):
    out = {}
    for (a, b, d), c in phi.items():
        if d > 0:
            out[(a, b, d - 1)] = out.get((a, b, d - 1), 0.0) + c * d
        out[(a, b, d)] = out.get((a, b, d), 0.0) + 2j * np.pi * b * c
    return clean(out)


def mul_y(phi, cap=DEGREE_CAP):
    degree = max((d for (_, _, d) in phi), default=0)
    if degree + 1 > cap:
        raise DegreeCapError(f"y-degree {degree + 1} exceeds cap {cap}")
    return {(a, b, d + 1): c for (a, b, d), c in phi.items()}


def mul_exp(phi, m, k):
    return {(a + m, b + k, d): c for (a, b, d), c in phi.items()}


def oracle_prequant_apply(f, phi, N, cap=DEGREE_CAP):
    """Q_N(f) phi by dict arithmetic, one section per term of the formula."""
    out = {}
    phi_x = d_x(phi)
    phi_y = d_y(phi)
    y_phi = mul_y(phi, cap)
    for (m, k), c in f.terms.items():
        inner = phi
        if k != 0:
            kn = k / N
            inner = sub(add(inner, scale(kn, phi_x)), scale(kn * (2j * np.pi * N), y_phi))
        if m != 0:
            inner = sub(inner, scale(m / N, phi_y))
        out = add(out, scale(c, mul_exp(inner, m, k)))
    return out


def oracle_dirac_identity_check(f, g, N, test_sections, cap=DEGREE_CAP):
    """The Dirac residual by dict arithmetic, one section at a time."""
    bracket = poisson_torus(f, g, N)
    worst = 0.0
    for phi in test_sections:
        lhs = sub(oracle_prequant_apply(f, oracle_prequant_apply(g, phi, N, cap), N, cap),
                  oracle_prequant_apply(g, oracle_prequant_apply(f, phi, N, cap), N, cap))
        rhs = scale(1j * TORUS_HBAR, oracle_prequant_apply(bracket, phi, N, cap))
        worst = max(worst, sup_coeff(sub(lhs, rhs)) / max(sup_coeff(lhs), sup_coeff(rhs), 1.0))
    return {"max_residual": worst}


def oracle_sin_cos_anomaly(N, probe_range, pair):
    s, c = (sin_x(), cos_x()) if pair == "x" else (sin_y(), cos_y())
    growth = []
    for a in range(1, probe_range + 1):
        phi = trig_section({(0, a, 0) if pair == "x" else (a, 0, 0): 1.0})
        r = sub(add(oracle_prequant_apply(s, oracle_prequant_apply(s, phi, N), N),
                    oracle_prequant_apply(c, oracle_prequant_apply(c, phi, N), N)), phi)
        growth.append(sup_coeff(r))
    return np.array(growth)


def outcome(fn, *args):
    """The result, or DegreeCapError if it was raised."""
    try:
        out = fn(*args)
    except DegreeCapError:
        return DegreeCapError
    return out


coefficients = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
observables = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), coefficients,
                              min_size=1, max_size=4).map(torus_observable)
sections = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 3)),
                           coefficients, min_size=1, max_size=4).map(trig_section)


# sections in boxes of half-width 2 around centres in [-20, 20]^2, degrees 0..4,
# including empty sections and explicit zero coefficients
boxed_sections = st.tuples(st.integers(-20, 20), st.integers(-20, 20)).flatmap(
    lambda c: st.dictionaries(
        st.tuples(st.integers(c[0] - 2, c[0] + 2), st.integers(c[1] - 2, c[1] + 2),
                  st.integers(0, 4)),
        st.one_of(st.just(0j), coefficients), max_size=4)).map(trig_section)


BASIS_SECTIONS = [trig_section({(a, b, d): 1.0})
                  for a in (-1, 0, 2) for b in (-2, 0, 1) for d in (0, 1, 2)]


# ----------------------------------------------------------- operator basics

def test_unit_observable_is_identity():
    phi = trig_section({(1, 2, 2): 1 + 1j, (0, 0, 0): 2.0, (-1, 1, 0): 0.5j})
    one = torus_observable({(0, 0): 1.0})
    out = prequant_apply(one, phi, 3)
    assert sup_coeff(sub(out, phi)) == 0.0


def test_against_sympy_oracle():
    # independent term-by-term differentiation oracle for the defining formula
    x, y = sp.symbols("x y", real=True)
    cases = [
        ({(1, 0): 1.0}, (0, 2, 0), 1),
        ({(1, 0): 1.0}, (0, 3, 1), 2),
        ({(0, 1): 1.0}, (2, -1, 0), 1),
        ({(2, -1): 1.0 + 0.5j}, (-1, 1, 2), 3),
    ]
    for f_terms, (a, b, d), N in cases:
        f_expr = sum(c * sp.exp(2 * sp.pi * sp.I * (m * x + k * y))
                     for (m, k), c in f_terms.items())
        phi_expr = y**d * sp.exp(2 * sp.pi * sp.I * (a * x + b * y))
        oracle = sp.expand(
            f_expr * phi_expr
            - sp.I / (2 * sp.pi * N) * (
                sp.diff(f_expr, y) * (sp.diff(phi_expr, x)
                                      - 2 * sp.pi * sp.I * N * y * phi_expr)
                - sp.diff(f_expr, x) * sp.diff(phi_expr, y)
            )
        )
        got = prequant_apply(torus_observable(f_terms), trig_section({(a, b, d): 1.0}), N)
        got_expr = sp.expand(sum(
            c * y**dd * sp.exp(2 * sp.pi * sp.I * (aa * x + bb * y))
            for (aa, bb, dd), c in got.items()
        ))
        diff = sp.simplify(oracle - got_expr)
        # numeric probe of the symbolic difference at irrational points
        val = complex(diff.subs({x: sp.sqrt(2) / 3, y: sp.sqrt(3) / 5}).evalf(30))
        assert abs(val) < 1e-12


def test_linearity_exact():
    rng = np.random.default_rng(8)
    f = random_observable(rng)
    g = random_observable(rng)
    phi = random_section(rng)
    psi = random_section(rng)
    N = 2
    combined_f = torus_observable({
        key: f.terms.get(key, 0.0) + 2.5 * g.terms.get(key, 0.0)
        for key in set(f.terms) | set(g.terms)
    })
    lhs = prequant_apply(combined_f, phi, N)
    rhs = add(prequant_apply(f, phi, N), scale(2.5, prequant_apply(g, phi, N)))
    assert sup_coeff(sub(lhs, rhs)) < 1e-14 * max(sup_coeff(lhs), 1.0)
    combined_phi = add(phi, scale(0.5 - 1j, psi))
    lhs2 = prequant_apply(f, combined_phi, N)
    rhs2 = add(prequant_apply(f, phi, N), scale(0.5 - 1j, prequant_apply(f, psi, N)))
    assert sup_coeff(sub(lhs2, rhs2)) < 1e-14 * max(sup_coeff(lhs2), 1.0)


@settings(max_examples=200)
@given(f=observables, g=observables, phi=sections, N=st.integers(1, 8))
def test_apply_matches_section_arithmetic_bit_for_bit(f, g, phi, N):
    # same per-key arithmetic in the same order: equal coefficients, not close ones
    assert prequant_apply(f, phi, N) == oracle_prequant_apply(f, phi, N)
    inner = prequant_apply(g, phi, N, cap=12)
    assert inner == oracle_prequant_apply(g, phi, N, cap=12)
    assert prequant_apply(f, inner, N, cap=12) == oracle_prequant_apply(f, inner, N, cap=12)


@settings(max_examples=150)
@given(f=observables, g=observables, phis=st.lists(boxed_sections, max_size=4),
       N=st.integers(1, 8))
@example(f=torus_observable({(1, 0): 1.0}), g=torus_observable({(0, 1): 1.0}), phis=[], N=2)
@example(f=torus_observable({(1, 0): 1.0}), g=torus_observable({(0, 1): 1.0}),
         phis=[trig_section({}), trig_section({(1, 1, 2): 0.0})], N=3)
@example(f=torus_observable({(1, 2): 1.0 - 2.0j, (-1, 0): 0.5j}),
         g=torus_observable({(1, 2): 1.0 - 2.0j, (-1, 0): 0.5j}),
         phis=BASIS_SECTIONS, N=5)  # f = g: the bracket has no terms
@example(f=torus_observable({(1, 0): 1.0, (-2, 0): 0.5j}),
         g=torus_observable({(3, 0): 2.0 - 1.0j}), phis=BASIS_SECTIONS, N=4)  # commuting
@example(f=torus_observable({(2, -1): 1.0 + 0.5j, (0, 3): -0.25}),
         g=torus_observable({(-3, 3): 1.0, (1, 0): 2.0j}),
         phis=[trig_section({(-60, 1, 0): 1.0, (60, -2, 3): 0.5 - 1.0j}),
               trig_section({(60, 0, 1): 2.0j})], N=7)  # wide support
def test_dirac_identity_random_polynomials(f, g, phis, N):
    # [Q(f), Q(g)] = i hbar Q({f, g}) holds term by term, so only rounding remains,
    # and the batched block check gives the per-section residual exactly
    got = dirac_identity_check(f, g, N, phis, cap=12)["max_residual"]
    assert got <= 1e-10
    assert got == oracle_dirac_identity_check(f, g, N, phis, cap=12)["max_residual"]


def test_degree_cap():
    phi = trig_section({(0, 0, 3): 1.0})
    f = torus_observable({(0, 1): 1.0})  # y-derivative term multiplies by y
    with pytest.raises(DegreeCapError):
        prequant_apply(f, phi, 1, cap=3)


@pytest.mark.parametrize("cap", [2, 3, 5, 8])
def test_degree_cap_raised_where_section_arithmetic_raises(cap):
    obs = [torus_observable({(0, 1): 1.0}), torus_observable({(1, 0): 1.0}),
           torus_observable({(2, -1): 0.5j, (-1, 0): 1.0})]
    for degree in (cap - 2, cap - 1, cap):
        # the explicit zero term counts towards the degree, as a dict key does
        for phi in (trig_section({(1, -1, degree): 1.0, (0, 2, 0): 0.5}),
                    trig_section({(0, 0, degree): 0.0, (2, 1, 0): 1.0j})):
            sections = [trig_section({(0, 0, 0): 1.0}), phi]
            for f in obs:
                assert (outcome(prequant_apply, f, phi, 2, cap)
                        == outcome(oracle_prequant_apply, f, phi, 2, cap))
                for g in obs:
                    assert (outcome(dirac_identity_check, f, g, 2, sections, cap)
                            == outcome(oracle_dirac_identity_check, f, g, 2, sections, cap))


# the entry points a raw section dict reaches
RAW_DICT_ENTRIES = pytest.mark.parametrize("apply", [
    lambda f, phi: prequant_apply(f, phi, 2),
    lambda f, phi: dirac_identity_check(f, f, 2, [{(0, 0, 0): 1.0}, phi]),
    lambda f, phi: trig_section(phi),
], ids=["prequant_apply", "dirac_identity_check", "trig_section"])


@RAW_DICT_ENTRIES
def test_negative_degree_rejected_in_raw_dicts(apply):
    # a raw dict reaches the packer unchecked; d = -1 must not land in the top degree slot
    f = torus_observable({(1, 0): 1.0, (0, 1): 0.5})
    with pytest.raises(ValueError, match=r"negative y-degree in term \(0, 0, -1\)"):
        apply(f, {(0, 0, -1): 1.0})


@RAW_DICT_ENTRIES
def test_non_integral_key_rejected(apply):
    # trig_section must not truncate it, nor the packer index with it
    f = torus_observable({(1, 0): 1.0, (0, 1): 0.5})
    with pytest.raises(ValueError, match=r"non-integral component in term \(0.5, 0, 1.7\)"):
        apply(f, {(0.5, 0, 1.7): 1.0})


def test_integral_keys_normalise_to_int():
    phi = trig_section({(np.int64(2), 2.0, np.int64(1)): 1})
    assert phi == {(2, 2, 1): 1 + 0j}
    assert all(type(k) is int for key in phi for k in key)


def test_nonpositive_N_rejected():
    f = torus_observable({(1, 0): 1.0})
    phi = trig_section({(0, 0, 0): 1.0})
    for N in (0, -1):
        with pytest.raises(ValueError, match="N >= 1"):
            prequant_apply(f, phi, N)
    with pytest.raises(ValueError, match="N >= 1"):
        dirac_identity_check(f, f, -1, [phi])


# ------------------------------------------------------------ torus bracket

def test_poisson_self_and_bilinear():
    rng = np.random.default_rng(4)
    f = random_observable(rng)
    out = poisson_torus(f, f, 3)
    assert all(abs(c) < 1e-14 for c in out.terms.values())
    g = random_observable(rng)
    h = random_observable(rng)
    gw = torus_observable({k: 2.0 * c for k, c in g.terms.items()})
    lhs = poisson_torus(f, torus_observable({
        key: gw.terms.get(key, 0.0) + h.terms.get(key, 0.0)
        for key in set(gw.terms) | set(h.terms)
    }), 3)
    rhs_terms = {}
    for part in (poisson_torus(f, gw, 3), poisson_torus(f, h, 3)):
        for key, c in part.terms.items():
            rhs_terms[key] = rhs_terms.get(key, 0.0) + c
    keys = set(lhs.terms) | set(rhs_terms)
    gap = max((abs(lhs.terms.get(k, 0.0) - rhs_terms.get(k, 0.0)) for k in keys),
              default=0.0)
    assert gap < 1e-12


def test_poisson_vs_grid_oracle():
    # finite differences of the mode functions on a torus mesh
    N = 3
    f = torus_observable({(1, 0): 1.0})
    g = torus_observable({(0, 1): 1.0})
    br = poisson_torus(f, g, N)
    xs = np.linspace(0, 1, 64, endpoint=False)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    h = 1e-5

    def fval(fx, xx, yy):
        return fx(xx, yy)

    fx = (fval(f, X + h, Y) - fval(f, X - h, Y)) / (2 * h)
    fy = (fval(f, X, Y + h) - fval(f, X, Y - h)) / (2 * h)
    gx = (fval(g, X + h, Y) - fval(g, X - h, Y)) / (2 * h)
    gy = (fval(g, X, Y + h) - fval(g, X, Y - h)) / (2 * h)
    oracle = (fx * gy - fy * gx) / N
    assert np.max(np.abs(br(X, Y) - oracle)) < 1e-5


# ------------------------------------------------------------ Dirac identity

def test_dirac_identity_self():
    f = torus_observable({(1, 1): 1.0, (-1, -1): 1.0})
    out = dirac_identity_check(f, f, 2, BASIS_SECTIONS)
    assert out["max_residual"] == 0.0


def test_dirac_identity_exponential_pair():
    f = torus_observable({(1, 0): 1.0})
    g = torus_observable({(0, 1): 1.0})
    for N in range(1, 5):
        out = dirac_identity_check(f, g, N, BASIS_SECTIONS)
        assert out["max_residual"] <= 1e-12


def test_dirac_identity_random_two_caps():
    rng = np.random.default_rng(19)
    for _ in range(20):
        f = random_observable(rng)
        g = random_observable(rng)
        N = int(rng.integers(1, 5))
        r1 = dirac_identity_check(f, g, N, BASIS_SECTIONS, cap=8)["max_residual"]
        r2 = dirac_identity_check(f, g, N, BASIS_SECTIONS, cap=12)["max_residual"]
        assert r1 <= 1e-10 and r2 <= 1e-10
        assert r1 == r2  # the cap only guards, it must not change results


# ----------------------------------------------------------------- anomaly

def test_anomaly_growth_x_pair():
    out = sin_cos_anomaly(1, 8, "x")["growth"]
    assert np.all(np.diff(out) > 0)
    # closed form: R = -(1/N^2) d^2/dy^2, giving (2 pi a)^2 on e^{2 pi i a y}
    expect = (2 * np.pi * np.arange(1, 9)) ** 2
    assert np.max(np.abs(out - expect) / expect) < 1e-13


def test_anomaly_growth_y_pair():
    out = sin_cos_anomaly(1, 8, "y")["growth"]
    assert np.all(np.diff(out) > 0)


@pytest.mark.parametrize("N, probe_range", [(1, 8), (3, 5), (2, 0)])
def test_anomaly_matches_section_arithmetic_bit_for_bit(N, probe_range):
    for pair in ("x", "y"):
        out = sin_cos_anomaly(N, probe_range, pair)["growth"]
        assert np.array_equal(out, oracle_sin_cos_anomaly(N, probe_range, pair))


def test_anomaly_constants_are_flat():
    const = trig_section({(0, 0, 0): 1.0})
    r = sub(add(prequant_apply(sin_x(), prequant_apply(sin_x(), const, 1), 1),
                prequant_apply(cos_x(), prequant_apply(cos_x(), const, 1), 1)), const)
    assert sup_coeff(r) == 0.0


# ------------------------------------------------------------ reality pairing

def _moment(d: int, b: int) -> complex:
    # exact integral of y^d e^{2 pi i b y} over [0, 1], integer b
    if b == 0:
        return 1.0 / (d + 1)
    if d == 0:
        return 0.0
    # integration by parts; e^{2 pi i b} = 1 for integer b
    return (1.0 - d * _moment(d - 1, b)) / (2j * np.pi * b)


def inner_product(phi: dict, psi: dict) -> complex:
    """Exact torus inner product <phi, psi> = int conj(phi) psi dx dy."""
    total = 0.0 + 0.0j
    for (a1, b1, d1), c1 in phi.items():
        for (a2, b2, d2), c2 in psi.items():
            if a1 != a2:
                continue
            total += np.conj(c1) * c2 * _moment(d1 + d2, b2 - b1)
    return complex(total)


def test_adjoint_pairing_on_periodic_sections():
    # y-polynomial terms break [0,1] periodicity (boundary terms in the
    # integration by parts), so the formal-adjoint pairing is checked on the
    # periodic degree-0 subring, where it holds at rounding level
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(25):
        f = random_observable(rng)
        fbar = torus_observable({(-m, -k): np.conj(c) for (m, k), c in f.terms.items()})
        phi = random_section(rng, max_deg=0)
        psi = random_section(rng, max_deg=0)
        lhs = np.conj(inner_product(prequant_apply(f, phi, 2), psi))
        rhs = np.conj(inner_product(phi, prequant_apply(fbar, psi, 2)))
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12
