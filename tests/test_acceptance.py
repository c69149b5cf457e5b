"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Runtime-bounded criteria assert their wall-clock budget as well.  All
tolerances are pinned here, not configurable.
"""

import time
from math import gcd

import numpy as np
import pytest

from strictq.core import Grid1D, Grid2D, HbarSchedule, fourier_fiber, quadrature, sample
from strictq.gaussian import (
    GaussianObservable,
    expectation_closed_form,
    expectation_quadrature,
    positivity_intermediates,
    positivity_verdict,
)
from strictq.symbols import gaussian_field, poisson_field
from strictq import asymptotics
from strictq import landsman as lm
from strictq import prequant as pq
from strictq import rotation as rot
from strictq.groupoid import KernelFamily, canonical_family, tangent_boundary_check, wm_correspondence
from strictq.weyl import OperatorKernel, hs_norm, op_norm, weyl_kernel

from conftest import random_gaussians, sampled_gaussian


def report(index, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {index:02d}: {status} - {detail}")
    assert passed, detail


def test_criterion_01_hilbert_schmidt_identity():
    t0 = time.time()
    axis = Grid1D(-16.0, 16.0, 512)
    grid = Grid2D(axis, axis)
    worst = 0.0
    for obs in random_gaussians(101, 10):
        f = sampled_gaussian(obs, grid)
        norm_sq = quadrature(f.with_values(np.abs(f.values) ** 2)).real
        for hbar in (1.0, 0.5, 0.25):
            hs2 = hs_norm(weyl_kernel(f, hbar, axis)) ** 2
            worst = max(worst, abs(hs2 - norm_sq / (2 * np.pi * hbar)) / norm_sq)
    elapsed = time.time() - t0
    report(1, worst <= 1e-4 and elapsed <= 30.0,
           f"Hilbert-Schmidt identity: worst rel {worst:.2e} (<=1e-4), {elapsed:.1f}s (<=30s)")


def test_criterion_02_positivity_threshold():
    t0 = time.time()
    hbar = 1.0
    qgrid = Grid1D(-16.0, 16.0, 512)
    ok = True
    details = []
    for ratio in (0.25, 0.5):
        side = np.sqrt(ratio) * hbar / 2.0
        v = positivity_verdict(GaussianObservable(alpha=side, beta=side), hbar, qgrid)
        ok = ok and v["min_eigenvalue"] < -1e-6 * v["scale"]
        details.append(f"{ratio}:{v['min_eigenvalue']:.1e}")
    for ratio in (1.0, 1.5, 2.0):
        side = np.sqrt(ratio) * hbar / 2.0
        v = positivity_verdict(GaussianObservable(alpha=side, beta=side), hbar, qgrid)
        ok = ok and v["min_eigenvalue"] >= -1e-6 * v["scale"]
        details.append(f"{ratio}:{v['min_eigenvalue']:.1e}")
    elapsed = time.time() - t0
    report(2, ok and elapsed <= 60.0,
           f"positivity threshold min-eigs {' '.join(details)}, {elapsed:.1f}s (<=60s)")


def test_criterion_03_expectation_closed_form():
    qgrid = Grid1D(-20.0, 20.0, 1024)
    hbar = 1.0
    worst = 0.0
    signs_ok = True
    for alpha in (0.5, 1.0, 2.0):
        for beta in (0.1, 0.3, 1.2):
            for sigma in (0.7, 1.0, 2.0):
                g = GaussianObservable(q0=0.3, p0=0.9, alpha=alpha, beta=beta)
                closed = expectation_closed_form(g, sigma, hbar)
                quad = expectation_quadrature(g, sigma, hbar, qgrid)
                worst = max(worst, abs(closed - quad) / max(abs(quad), 1e-12))
                theta = positivity_intermediates(g, sigma, hbar).theta
                signs_ok = signs_ok and (np.sign(closed) == np.sign(theta))
    report(3, worst <= 1e-5 and signs_ok,
           f"expectation closed form vs quadrature: worst rel {worst:.2e} (<=1e-5), "
           f"signs match Theta: {signs_ok}")


def test_criterion_04_strict_quantization_axioms():
    t0 = time.time()
    axis = Grid1D(-6.0, 6.0, 1024)
    grid = Grid2D(axis, axis)
    f = sampled_gaussian(GaussianObservable(0.4, -0.2, 0.7, 0.5), grid)
    g = sampled_gaussian(GaussianObservable(-0.3, 0.3, 0.6, 0.55), grid)
    sched = HbarSchedule(start=1.0, ratio=0.5, count=7)

    dirac, vonn, norm, _, star_p, star_b = asymptotics.axiom_sweep(f, g, sched)

    def decreasing_from_2(rep):
        d = rep.defects
        return bool(np.all(np.diff(d[2:]) <= 0))

    seq_ok = all(decreasing_from_2(r) and r.passes(0.05)
                 for r in (dirac, vonn, star_p, star_b))
    norm_ok = abs(norm.defects[-1]) <= 0.05 * 2.0 and abs(norm.classical_ref - 2.0) < 1e-3
    elapsed = time.time() - t0
    finals = (dirac.defects[-1] / dirac.classical_ref,
              vonn.defects[-1] / vonn.classical_ref,
              star_p.defects[-1] / star_p.classical_ref,
              star_b.defects[-1] / star_b.classical_ref,
              norm.defects[-1] / 2.0)
    report(4, seq_ok and norm_ok and elapsed <= 300.0,
           "axiom defects decreasing from index 2, final rel "
           + " ".join(f"{x:.2%}" for x in finals)
           + f" (<=5%), {elapsed:.0f}s (<=300s)")


def test_criterion_05_rotation_algebra_exactness():
    rng = np.random.default_rng(55)
    worst = 0.0
    center_worst = 0.0
    for N in range(1, 17):
        for K in range(1, N + 1):
            if gcd(K, N) != 1 or (K > N / 2 and not (K == N == 1)):
                continue
            rep = rot.rep_matrices(N, K)
            comm = np.max(np.abs(rep.V @ rep.U
                                 - np.exp(2j * np.pi * K / N) * rep.U @ rep.V))
            unit = max(np.max(np.abs(rep.U @ rep.U.conj().T - np.eye(N))),
                       np.max(np.abs(rep.V @ rep.V.conj().T - np.eye(N))))
            worst = max(worst, comm, unit)
            for _ in range(2):
                terms_a = {(int(rng.integers(-4, 5)), int(rng.integers(-4, 5))):
                           complex(*rng.normal(size=2)) for _ in range(4)}
                terms_b = {(int(rng.integers(-4, 5)), int(rng.integers(-4, 5))):
                           complex(*rng.normal(size=2)) for _ in range(4)}
                a = rot.rot_element(rep.theta, terms_a)
                b = rot.rot_element(rep.theta, terms_b)
                ra, rb = rot.represent(a, rep), rot.represent(b, rep)
                worst = max(worst, np.max(np.abs(
                    rot.represent(rot.convolve(a, b), rep) - ra @ rb)))
                worst = max(worst, np.max(np.abs(
                    rot.represent(rot.involution(a), rep) - ra.conj().T)))
            for m, k in ((1, 0), (0, 1), (1, 1)):
                out = rot.center_check(m * N, k * N, N, K)
                mat = rot.represent(
                    rot.rot_element(rep.theta, {(m * N, k * N): 1.0}), rep)
                center_worst = max(center_worst, np.max(np.abs(
                    mat - out["scalar"] * np.eye(N))))
    report(5, worst <= 1e-12 and center_worst <= 1e-13,
           f"rotation algebra: worst identity defect {worst:.2e} (<=1e-12), "
           f"center scalar defect {center_worst:.2e} (<=1e-13)")


def test_criterion_06_dirac_defect_scaling():
    worst = 0.0
    for N in range(1, 17):
        for m in range(1, 5):
            for n in range(1, 5):
                out = rot.dirac_defect(m, n, N)
                worst = max(worst, np.max(np.abs(out["direct"] - out["matrix"])))
    scalar = abs(rot.dirac_defect(1, 1, 64)["scalar"])
    scaled = scalar * 64**3
    limit_ok = abs(scaled - np.pi**3 / 3.0) / (np.pi**3 / 3.0) <= 0.01
    report(6, worst <= 1e-12 and limit_ok,
           f"fuzzy-torus Dirac defect: direct-vs-closed {worst:.2e} (<=1e-12), "
           f"|scalar| N^3 = {scaled:.4f} vs pi^3/3 = {np.pi**3 / 3:.4f} (within 1%)")


def test_criterion_07_prequantization():
    sections = [pq.trig_section({(a, b, d): 1.0})
                for a in (-1, 0, 2) for b in (-2, 0, 1) for d in (0, 1, 2)]
    worst = 0.0
    modes = [(m, k) for m in range(-3, 4) for k in range(-3, 4)]
    for N in range(1, 9):
        for m1, k1 in modes:
            f = rot.torus_observable({(m1, k1): 1.0})
            for m2, k2 in ((1, 0), (0, 1), (2, -1), (-3, 3)):
                g = rot.torus_observable({(m2, k2): 1.0})
                res = pq.dirac_identity_check(f, g, N, sections, cap=12)
                worst = max(worst, res["max_residual"])
    rng = np.random.default_rng(77)
    for _ in range(20):
        f = rot.torus_observable({(int(rng.integers(-3, 4)), int(rng.integers(-3, 4))):
                                  complex(*rng.normal(size=2)) for _ in range(3)})
        g = rot.torus_observable({(int(rng.integers(-3, 4)), int(rng.integers(-3, 4))):
                                  complex(*rng.normal(size=2)) for _ in range(3)})
        worst = max(worst, pq.dirac_identity_check(
            f, g, int(rng.integers(1, 9)), sections, cap=12)["max_residual"])
    growth_x = pq.sin_cos_anomaly(1, 8, "x")["growth"]
    growth_y = pq.sin_cos_anomaly(1, 8, "y")["growth"]
    mono = bool(np.all(np.diff(growth_x[2:]) > 0) and np.all(np.diff(growth_y[2:]) > 0))
    report(7, worst <= 1e-10 and mono,
           f"prequantization Dirac residual {worst:.2e} (<=1e-10), anomaly growth "
           f"monotone over probes 3..8: {mono}")


def test_criterion_08_groupoid_correspondence():
    axis = Grid1D(-12.0, 12.0, 384)
    grid = Grid2D(axis, axis)
    f = sampled_gaussian(GaussianObservable(0.2, -0.3, 1.0, 0.8), grid)
    results = {}
    ok = True
    for hbar in (1.0, 0.5):
        res = wm_correspondence(f, hbar)
        results[hbar] = res["defect"] / res["weyl_norm"]
        ok = ok and res["defect"] <= 1e-5 * res["weyl_norm"]
    report(8, ok,
           "semidirect vs Weyl kernels: rel defects "
           + " ".join(f"hbar={h}: {d:.2e}" for h, d in results.items())
           + " (<=1e-5)")


def test_criterion_09_tangent_boundary():
    axis = Grid1D(-12.0, 12.0, 384)
    grid = Grid2D(axis, axis)
    f = sampled_gaussian(GaussianObservable(0.2, -0.3, 1.0, 0.8), grid)
    g = sampled_gaussian(GaussianObservable(-0.5, 0.4, 0.6, 1.1), grid)
    fam = canonical_family(f, [1.0, 0.5, 0.25, 0.125])
    canon = tangent_boundary_check(fam)
    bad = KernelFamily(
        hbars=fam.hbars,
        kernels=tuple(weyl_kernel(g, h, axis) for h in fam.hbars),
        boundary_symbol=fam.boundary_symbol,
    )
    violating = tangent_boundary_check(bad)
    gap_ref = np.max(np.abs(fourier_fiber(f).values - fourier_fiber(g).values))
    ok = bool(np.all(canon.defects <= 1e-6)
              and np.all(violating.defects >= gap_ref / 2.0))
    report(9, ok,
           f"tangent boundary: canonical sup {np.max(canon.defects):.2e} (<=1e-6), "
           f"violating min {np.min(violating.defects):.3f} >= sup|ft-gt|/2 = {gap_ref / 2:.3f}")


def test_criterion_10_landsman():
    axis = Grid1D(-12.0, 12.0, 384)
    grid = Grid2D(axis, axis)
    obs = GaussianObservable(0.2, -0.3, 1.0, 0.8)
    f = sampled_gaussian(obs, grid)
    flat = lm.metric_flat()
    fiber = lm.fiber_fourier(f, flat).fiber
    fsym = lm.gaussian_fiber_symbol(obs, flat, axis, fiber)
    worst = 0.0
    for hbar in (1.0, 0.5, 0.25):
        kl = lm.landsman_kernel(fsym, hbar, flat)
        kw = weyl_kernel(f, hbar, axis)
        worst = max(worst,
                    np.max(np.abs(kl.matrix - kw.matrix)) / np.max(np.abs(kw.matrix)))

    exp2q = lm.metric_exp2q()
    base = Grid1D(-2.0, 2.0, 384)
    pax = Grid1D(-12.0, 12.0, 384)
    grid2 = Grid2D(base, pax)
    gA = GaussianObservable(0.0, -0.2, 0.05, 1.0)
    gB = GaussianObservable(0.1, 0.3, 0.06, 0.9)
    fA = sampled_gaussian(gA, grid2)
    fB = sampled_gaussian(gB, grid2)
    fiber2 = lm.fiber_fourier(fA, exp2q).fiber
    sA = lm.gaussian_fiber_symbol(gA, exp2q, base, fiber2)
    sB = lm.gaussian_fiber_symbol(gB, exp2q, base, fiber2)
    sBr = lm.fiber_fourier(sample(poisson_field(fA.symbol, fB.symbol), grid2), exp2q)
    sPr = lm.fiber_fourier(sample(fA.symbol * fB.symbol, grid2), exp2q)
    adm = min(lm.hbar_admissible(s, exp2q) for s in (sA, sB, sBr, sPr))
    dirac, vonn = [], []
    for hbar in min(0.9 * adm, 0.16) * 0.5 ** np.arange(4):
        ka = lm.landsman_kernel(sA, hbar, exp2q)
        kb = lm.landsman_kernel(sB, hbar, exp2q)
        kbr = lm.landsman_kernel(sBr, hbar, exp2q)
        kpr = lm.landsman_kernel(sPr, hbar, exp2q)
        bracket = asymptotics.quantum_bracket(ka, kb, hbar)
        product = asymptotics.jordan(ka, kb)
        dirac.append(op_norm(OperatorKernel(grid=base, matrix=kbr.matrix - bracket.matrix,
                                            hbar=hbar)))
        vonn.append(op_norm(OperatorKernel(grid=base, matrix=kpr.matrix - product.matrix,
                                           hbar=hbar)))
    seq_ok = bool(np.all(np.diff(dirac) < 0) and np.all(np.diff(vonn) < 0))
    report(10, worst <= 1e-5 and seq_ok,
           f"flat-metric equivalence rel sup {worst:.2e} (<=1e-5); exp2q axiom "
           f"sequences decreasing: {seq_ok}")
