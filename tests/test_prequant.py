import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from strictq.prequant import (
    DEGREE_CAP,
    DegreeCapError,
    TrigSection,
    cos_x,
    cos_y,
    dirac_identity_check,
    inner_product,
    poisson_torus,
    prequant_apply,
    sin_cos_anomaly,
    sin_x,
    sin_y,
    trig_section,
)
from strictq.rotation import torus_observable


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


def oracle_prequant_apply(f, phi, N, cap=DEGREE_CAP):
    """Q_N(f) phi by TrigSection arithmetic, one section per term of the formula."""
    out = TrigSection({})
    phi_x = phi.d_x()
    phi_y = phi.d_y()
    y_phi = phi.mul_y(cap)
    for (m, k), c in f.terms.items():
        inner = phi
        if k != 0:
            inner = inner + (k / N) * phi_x - (k / N) * (2j * np.pi * N) * y_phi
        if m != 0:
            inner = inner - (m / N) * phi_y
        out = out + c * inner.mul_exp(m, k)
    return out


coefficients = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
observables = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), coefficients,
                              min_size=1, max_size=4).map(torus_observable)
sections = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 3)),
                           coefficients, min_size=1, max_size=4).map(trig_section)


BASIS_SECTIONS = [trig_section({(a, b, d): 1.0})
                  for a in (-1, 0, 2) for b in (-2, 0, 1) for d in (0, 1, 2)]


# ----------------------------------------------------------- operator basics

def test_unit_observable_is_identity():
    phi = trig_section({(1, 2, 2): 1 + 1j, (0, 0, 0): 2.0, (-1, 1, 0): 0.5j})
    one = torus_observable({(0, 0): 1.0})
    out = prequant_apply(one, phi, 3)
    assert (out - phi).sup_coeff() == 0.0


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
            for (aa, bb, dd), c in got.terms.items()
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
    rhs = prequant_apply(f, phi, N) + 2.5 * prequant_apply(g, phi, N)
    assert (lhs - rhs).sup_coeff() < 1e-14 * max(lhs.sup_coeff(), 1.0)
    combined_phi = phi + (0.5 - 1j) * psi
    lhs2 = prequant_apply(f, combined_phi, N)
    rhs2 = prequant_apply(f, phi, N) + (0.5 - 1j) * prequant_apply(f, psi, N)
    assert (lhs2 - rhs2).sup_coeff() < 1e-14 * max(lhs2.sup_coeff(), 1.0)


@settings(max_examples=200)
@given(f=observables, g=observables, phi=sections, N=st.integers(1, 8))
def test_apply_matches_section_arithmetic_bit_for_bit(f, g, phi, N):
    # same per-key arithmetic in the same order: equal coefficients, not close ones
    assert prequant_apply(f, phi, N).terms == oracle_prequant_apply(f, phi, N).terms
    inner = prequant_apply(g, phi, N, cap=12)
    assert inner.terms == oracle_prequant_apply(g, phi, N, cap=12).terms
    assert (prequant_apply(f, inner, N, cap=12).terms
            == oracle_prequant_apply(f, inner, N, cap=12).terms)


@settings(max_examples=100)
@given(f=observables, g=observables, phis=st.lists(sections, min_size=1, max_size=3),
       N=st.integers(1, 8))
def test_dirac_identity_random_polynomials(f, g, phis, N):
    # [Q(f), Q(g)] = i hbar Q({f, g}) holds term by term, so only rounding remains
    assert dirac_identity_check(f, g, N, phis, cap=12)["max_residual"] <= 1e-10


def test_degree_cap():
    phi = trig_section({(0, 0, 3): 1.0})
    f = torus_observable({(0, 1): 1.0})  # y-derivative term multiplies by y
    with pytest.raises(DegreeCapError):
        prequant_apply(f, phi, 1, cap=3)


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


def test_anomaly_constants_are_flat():
    const = trig_section({(0, 0, 0): 1.0})
    r = (
        prequant_apply(sin_x(), prequant_apply(sin_x(), const, 1), 1)
        + prequant_apply(cos_x(), prequant_apply(cos_x(), const, 1), 1)
        - const
    )
    assert r.sup_coeff() == 0.0


# ------------------------------------------------------------ reality pairing

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
