"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated anywhere else.
"""
import math

import numpy as np
import pytest

from conftest import admissible_states
from kovtop.changevar import (conjugacy_check, gen_cv, linear_cv,
                              nonlinear_cv3)
from kovtop.flows import (euler_top3, generalized_euler,
                          generalized_kovalevskaya, kovalevskaya3,
                          kovalevskaya_field)
from kovtop.hk_engine import hk_step, polarize
from kovtop.invariants import (IDENTITIES, _poly_n4_residual,
                               _relation_qq_residual, altmap_n4_integrals,
                               claimed_invariants, convergence_study,
                               cross_ratio_integrals, defect_order,
                               density_cross_power, density_euler_hk,
                               density_kov_hk, density_kov_product,
                               drift_batch, flow_power_integrals,
                               genhk_n4_integrals, independence_rank,
                               kov_hk_integrals, kov_poly_integrals,
                               kov_product_integrals, random_starts, registry,
                               volume_check)
from kovtop.maps import (_r_reciprocity_residual, _s_relation_residuals,
                         alt_map, cosine_law, euler_hk, gen_hk, kov_pullback,
                         kov_sqrt)


def _report(num, text, worst=None):
    detail = "" if worst is None else f" (worst {worst:.2e})"
    print(f"[PASS] criterion {num}: {text}{detail}")


# --- 1. conservation ---------------------------------------------------------

def test_criterion_1_conservation():
    cases = [gen_hk(3), kov_sqrt(), kov_pullback(), alt_map(3),
             gen_hk(4), alt_map(4), gen_hk(5), alt_map(5)]
    worst = 0.0
    for m in cases:
        invs = claimed_invariants(m, registry(m.dim))
        assert invs, m.name
        starts = random_starts(20, m.dim, seed=101)
        for rep in drift_batch(m, invs, starts, 0.01, 10_000):
            assert not math.isnan(rep.max_rel_drift), (m.name, rep.invariant)
            assert rep.max_rel_drift < 1e-9, \
                (m.name, rep.invariant, rep.max_rel_drift)
            worst = max(worst, rep.max_rel_drift)
    _report(1, "all registered (map, invariant) pairs drift < 1e-9 over "
               "1e4 steps at eps=0.01, 20 starts", worst)


# --- 2. volume forms ---------------------------------------------------------

def test_criterion_2_volume():
    worst = 0.0

    def run(m, psis, eps, n_pts=50, seed=102):
        nonlocal worst
        pts = admissible_states(n_pts, m.dim, seed=seed)
        for y in pts:
            for psi in psis:
                r = volume_check(m, psi, y, eps)
                assert r < 1e-5, (m.name, r)
                worst = max(worst, r)

    run(euler_hk(), [density_euler_hk(j) for j in range(3)], 0.05)
    run(gen_hk(3), [density_kov_hk(j) for j in range(3)], 0.05)
    run(kov_sqrt(), [density_kov_product(0, 1), density_kov_product(1, 2)], 0.05)
    run(kov_pullback(), [density_kov_product(0, 1), density_kov_product(2, 0)], 0.05)
    for N in (3, 4, 5, 6):
        psis = [density_cross_power(0, 1), density_cross_power(N - 2, N - 1)]
        run(gen_hk(N), psis, 0.05)
        run(alt_map(N), psis, 0.02)
    _report(2, "finite-difference Jacobians match psi(ynew)/psi(y) within "
               "1e-5 at 50 points per map/density, N in {3,4,5,6}", worst)


# --- 3. exact identities -----------------------------------------------------

def test_criterion_3_identities():
    rng = np.random.default_rng(103)
    worst = 0.0

    # explicit form == generic linear-solve step
    for N in range(3, 9):
        sys_ = polarize(kovalevskaya_field(N))
        m = gen_hk(N)
        for _ in range(10):
            y = rng.uniform(0.1, 2.0, N)
            eps = rng.uniform(0.005, 0.08)
            a, b = hk_step(sys_, y, eps), m.step(y, eps)
            r = float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a))))
            assert r < 1e-12
            worst = max(worst, r)

    for _ in range(25):
        y4 = rng.uniform(0.1, 2.0, 4)
        eps = rng.uniform(0.005, 0.1)
        r1, r2 = _s_relation_residuals(y4.tolist(), eps)
        assert r1 < 1e-12 and r2 < 1e-12
        r = _r_reciprocity_residual(y4.tolist(), eps)
        assert r < 1e-12
        worst = max(worst, r1, r2, r)

        y5 = rng.uniform(0.1, 2.0, 5)
        r = _relation_qq_residual(gen_hk(5), y5.tolist(), eps)
        assert r < 1e-12
        worst = max(worst, r)
        r = _relation_qq_residual(alt_map(4), y4.tolist(), eps)
        assert r < 1e-12
        worst = max(worst, r)

        eps_poly = rng.uniform(0.01, 0.3)
        r = _poly_n4_residual(y4.tolist(), eps_poly)
        assert r < 1e-12
        worst = max(worst, r)

        d_sum, _, _ = IDENTITIES["d-sum"]
        r = d_sum(y4, eps_poly)
        assert r < 1e-14
        worst = max(worst, r)

        r_product, _, _ = IDENTITIES["r-product"]
        r = r_product(y4, eps_poly)
        assert r < 1e-12
        worst = max(worst, r)

    _report(3, "explicit-vs-engine, S-relations, R-reciprocity, step-ratio "
               "index independence, N=4 polynomial identity, d-sum, R*prod=D "
               "all within 1e-12", worst)


# --- 4. compositions and reversibility ---------------------------------------

def test_criterion_4_composition():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(25):
        y = rng.uniform(0.1, 2.0, 3)
        eps = rng.uniform(0.005, 0.1)

        half, full = cosine_law(), euler_hk()
        r = float(np.max(np.abs(half.step(half.step(y, eps), eps)
                                - full.step(y, eps))))
        assert r < 1e-12
        worst = max(worst, r)

        half, full = kov_sqrt(), kov_pullback()
        r = float(np.max(np.abs(half.step(half.step(y, eps), eps)
                                - full.step(y, eps))))
        assert r < 1e-12
        worst = max(worst, r)

        r = float(np.max(np.abs(alt_map(3).step(y, eps) - kov_sqrt().step(y, eps))))
        assert r < 1e-12
        worst = max(worst, r)

        maps3 = (euler_hk(), cosine_law(), kov_sqrt(), kov_pullback(),
                 gen_hk(3), alt_map(3))
        for m in maps3:
            r = float(np.max(np.abs(m.step(m.step(y, eps), -eps) - y)))
            assert r < 1e-12, m.name
            worst = max(worst, r)
        y5 = rng.uniform(0.1, 2.0, 5)
        for m in (gen_hk(5), alt_map(5)):
            r = float(np.max(np.abs(m.step(m.step(y5, eps), -eps) - y5)))
            assert r < 1e-12, m.name
            worst = max(worst, r)
    _report(4, "square-root compositions, alt-map(3) = square-root map, and "
               "reversibility round trips all within 1e-12", worst)


# --- 5. conjugacy ------------------------------------------------------------

def test_criterion_5_conjugacy():
    rng = np.random.default_rng(105)
    worst_map, worst_flow = 0.0, 0.0
    lin, nl = linear_cv(), nonlinear_cv3()
    for _ in range(10):
        x = rng.uniform(0.2, 1.2, 3)
        eps = rng.uniform(0.005, 0.08)
        for cv, up, down in ((lin, euler_hk(), gen_hk(3)),
                             (nl, euler_hk(), kov_pullback()),
                             (nl, cosine_law(), kov_sqrt())):
            r = conjugacy_check(cv, up, down, x, eps)
            assert r < 1e-12
            worst_map = max(worst_map, r)
        for cv in (lin, nl):
            r = conjugacy_check(cv, euler_top3(), kovalevskaya3(), x, 0.0)
            assert r < 1e-8
            worst_flow = max(worst_flow, r)
    for N in (3, 4, 5):
        g = gen_cv(N)
        up, down = generalized_euler(N), generalized_kovalevskaya(N, 2.0)
        for _ in range(5):
            x = rng.uniform(0.3, 1.2, N)
            r = conjugacy_check(g, up, down, x, 0.0)
            assert r < 1e-8
            worst_flow = max(worst_flow, r)

    # integral transport through both three-dimensional changes of variables
    for _ in range(10):
        x = rng.uniform(0.2, 1.5, 3)
        ylin, ynl = lin.forward(x), nl.forward(x)
        for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            E = x[k] ** 2 - x[j] ** 2
            r = abs(ylin[i] * (ylin[j] - ylin[k]) - E / 4.0)
            assert r < 1e-12 * (1 + abs(E))
            r = abs(ynl[i] * (ynl[j] - ynl[k]) - E)
            assert r < 1e-12 * (1 + abs(E))

    _report(5, "map conjugacies < 1e-12, flow conjugacies (incl. gen_cv for "
               f"N=3,4,5) < 1e-8, integral transport exact; worst map "
               f"{worst_map:.2e}, worst flow {worst_flow:.2e}")


# --- 6. independence ranks ---------------------------------------------------

def test_criterion_6_ranks():
    checks = []
    pts3 = admissible_states(10, 3, seed=106)
    checks.append(("poly K family", kov_poly_integrals(), pts3, 0.0, 2))
    checks.append(("deformed K (hk)", kov_hk_integrals(), pts3, 0.01, 2))
    checks.append(("deformed K (sqrt)", kov_product_integrals(), pts3, 0.01, 2))
    for N in (3, 4, 5):
        pts = admissible_states(10, N, seed=106 + N)
        checks.append((f"power family N={N}", flow_power_integrals(N), pts,
                       0.0, N - 1))
        checks.append((f"power family N={N} alpha=1.3",
                       flow_power_integrals(N, 1.3), pts, 0.0, N - 1))
        checks.append((f"cross-ratios N={N}", cross_ratio_integrals(N), pts,
                       0.01, N - 2))
    pts4 = admissible_states(10, 4, seed=116)
    checks.append(("N=4 deformed (hk)", genhk_n4_integrals(), pts4, 0.01, 3))
    checks.append(("N=4 deformed (alt)", altmap_n4_integrals(), pts4, 0.01, 3))
    for label, invs, pts, eps, expected in checks:
        for y in pts:
            got = independence_rank(invs, y, eps)
            assert got == expected, (label, got, expected)
    _report(6, "independence ranks: 2/2/2 for the three-dimensional families, "
               "N-1 for power families (both alpha), N-2 for cross-ratios, "
               "3 for both N=4 deformed families")


# --- 7. convergence order ----------------------------------------------------

def test_criterion_7_convergence():
    eps_list = [0.01, 0.005, 0.0025, 0.00125]
    cases = [(euler_hk(), np.array([0.3, 0.4, 0.5])),
             (gen_hk(4), np.array([0.2, 0.3, 0.4, 0.5])),
             (alt_map(4), np.array([0.2, 0.3, 0.4, 0.5]))]
    slopes = []
    for m, y0 in cases:
        _, slope = convergence_study(m, y0, 0.2, eps_list)
        assert 1.9 < slope < 2.1, (m.name, slope)
        slopes.append(f"{m.name}: {slope:.3f}")
    _report(7, "log-log error slopes vs RK4 reference in [1.9, 2.1] with "
               "map time scaled by the step scale: " + ", ".join(slopes))


# --- 8. defect order ---------------------------------------------------------

def test_criterion_8_defect_order():
    eps_list = [0.05, 0.04, 0.03, 0.02, 0.01]
    y3 = np.array([0.3, 0.4, 0.5])
    y4 = np.array([0.3, 0.4, 0.5, 0.6])
    y5 = np.array([0.3, 0.4, 0.5, 0.6, 0.7])

    assert defect_order(gen_hk(3), kov_hk_integrals()[0], y3, eps_list) == math.inf
    assert defect_order(gen_hk(4), genhk_n4_integrals()[0], y4, eps_list) == math.inf
    assert defect_order(alt_map(4), altmap_n4_integrals()[0], y4, eps_list) == math.inf

    slope = defect_order(kov_pullback(), kov_poly_integrals()[0], y3, eps_list)
    assert 1.85 < slope < 2.15, slope

    # N = 5: the undeformed power integral visibly drifts under the map;
    # reported as evidence only, not asserted as a theorem
    naive = defect_order(gen_hk(5), flow_power_integrals(5)[0], y5, eps_list)
    assert math.isfinite(naive)
    _report(8, "exact integrals return the infinite-order sentinel, the "
               f"eps-independent K under the pulled-back map rates order "
               f"{slope:.3f}, and the naive N=5 candidate drifts at order "
               f"{naive:.3f} (reported, not asserted)")
