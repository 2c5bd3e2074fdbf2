import hashlib
import json
import math
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from mpmath import iv

from conftest import admissible_states
from reference_writers import reference_drift_csv, reference_drift_json
from kovtop import cli, invariants, kernels
from kovtop.cli import main
from kovtop.errors import DimensionError, DomainError, ParameterError
from kovtop.flows import (FLOW_NAMES, FlowSpec, euler_top3, generalized_euler,
                          generalized_kovalevskaya, get_flow, kovalevskaya3,
                          rk4_states)
from kovtop.invariants import (CANCEL_TOL, IDENTITIES, DriftReport, Invariant,
                               TRACKING_GUARDS, altmap_n4_integrals,
                               _poly_n4_residual, _relation_qq_residual,
                               claimed_invariants, convergence_study,
                               cross_ratio_integrals, defect_order,
                               density_cross_power, density_euler_hk,
                               density_flow_power, density_kov_hk,
                               density_kov_product, drift_batch, drift_report,
                               drift_to_csv, drift_to_json, euler_hk_integrals,
                               evaluate,
                               flow_power_integrals, genhk_n4_integrals,
                               identity_battery, independence_rank,
                               invariant_gradients,
                               kov_hk_integrals,
                               kov_poly_integrals, kov_product_integrals,
                               phi_alt3, phi_alt4, phi_genhk3, phi_genhk4,
                               quartet_integrals, random_starts, registry,
                               sqrt_quartet_integrals,
                               verify_phi_functional_equation,
                               volume_check)
from kovtop.maps import (MAP_NAMES, alt_map, cosine_law, euler_hk, gen_hk,
                         get_map, kov_pullback, kov_sqrt)
from kovtop.numdiff import DEFAULT_SCALE


def test_kov_poly_values():
    y = np.array([1.0, 2.0, 3.0])
    K23, K31, K12 = (inv.value(y) for inv in kov_poly_integrals())
    assert (K23, K31, K12) == (-1.0, 4.0, -3.0)
    assert K23 + K31 + K12 == 0.0


def test_quartet_values_and_relation():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    P1, P2, P3 = (inv.value(y) for inv in quartet_integrals())
    assert (P1, P2, P3) == (1.0, 4.0, 3.0)
    assert P1 - P2 + P3 == 0.0


def test_sqrt_quartet_values():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    invs = {inv.name: inv for inv in sqrt_quartet_integrals()}
    K12 = invs["K12_s4"].value(y)
    K34 = invs["K34_s4"].value(y)
    assert abs(K12 + math.sqrt(6)) < 1e-14
    assert abs(K12 * K34 - 1.0) < 1e-14  # equals P1


def test_sqrt_quartet_domain():
    inv = sqrt_quartet_integrals()[0]
    with pytest.raises(DomainError):
        inv.value(np.array([1.0, -2.0, 3.0, 4.0]))


def test_cross_ratio_examples():
    # (y_i - y_j)/(y_i y_j) * (y_k y_l)/(y_k - y_l) is H34:H12 at the point
    # with y_i, y_j in places 3, 4 and y_k, y_l in places 1, 2
    h = {inv.name: inv for inv in cross_ratio_integrals(4)}["H34:H12"]
    assert h.value([3.0, 4.0, 1.0, 2.0]) == 6.0
    assert h.value([3.0, 4.0, 2.0, 1.0]) == -6.0
    assert h.value([3.0, 4.0, 2.0, 2.0]) == 0.0
    with pytest.raises(DomainError):
        h.value([3.0, 4.0, 0.0, 2.0])
    with pytest.raises(DomainError):
        h.value([3.0, 3.0, 1.0, 2.0])


def test_registry_families_by_dimension():
    fams3 = {v.family for v in registry(3)}
    assert {"kov-poly", "euler-poly", "euler-hk-eps", "kov-hk-eps",
            "kov-sqrt-eps", "flow-power", "cross-ratio"} <= fams3
    fams4 = {v.family for v in registry(4)}
    assert {"quartet", "quartet-sqrt", "genhk4-phi", "altmap4-phi"} <= fams4
    assert all(v.dim == 5 for v in registry(5))


def test_registry_returns_a_new_list_of_shared_invariants():
    first, second = registry(4), registry(4)
    assert first is not second
    assert [v.name for v in first] == [v.name for v in second]
    assert all(a is b for a, b in zip(first, second, strict=True))
    size = len(second)
    second.append(second[0])
    second.reverse()
    again = registry(4)
    assert len(again) == size and again == first
    # -0.0 == 0.0, but the power-law family name keeps the sign
    assert {v.family for v in registry(4, 0.0)} >= {"flow-power(alpha=0)"}
    assert {v.family for v in registry(4, -0.0)} >= {"flow-power(alpha=-0)"}
    for _ in range(2):      # a rejected argument raises on every call
        with pytest.raises(ParameterError):
            registry(4, 4.0)
        with pytest.raises(DimensionError):
            registry(2)


def _family_stack(N):
    """Seeded starts, then points on the edges of the families' masks."""
    pts = random_starts(6, N, seed=N)
    base = pts[0]
    edge = [base.copy() for _ in range(5)]
    edge[0][2] = 0.0                 # a zero coordinate
    edge[1][1] = edge[1][0]          # a coincident pair
    edge[2][1] = -base[1]            # a negative coordinate
    edge[3][1] = -base[0]            # |y_1| = |y_2| with opposite signs
    edge[4] *= 5.0                   # outside the square-root domains at eps 0.3
    return np.vstack([pts, edge])


def _bits(values):
    # the float64 bits, with every NaN written as the one np.nan
    return np.where(np.isnan(values), np.nan, values).tobytes()


# sha256 of every registry member's values (_bits), reliable and in_domain
# masks on _family_stack(N) at eps 0, 0.01 and 0.3, in registry order.
# Recorded when each member was its own closure; any change to the order of a
# family formula's operations changes the bits.
_FAMILY_SHA = {
    (3, 2.0): "d0f6a148c77d4acbda78e57202655a7db8d4db74bc602ca13af1c8b175010f38",
    (3, 1.3): "2a45fb6fbe46ea32e0d3209f01de18f73f05037a134e9ab73c45e0fa831815e4",
    (4, 2.0): "b2976269523bfcdd6a3b530d1f216e2bba32ee5ad22d635aced7230244d134ed",
    (4, 1.3): "96d4136d6d19b90b978ca8968618d8cb00c265a2e6294eddf145c8b5d4eb29b8",
    (5, 2.0): "372c9667b365cfab6fe1bb086f23b82b8027cb340ea2355c242f95aa8f77180d",
    (5, 1.3): "fb88ba5c07b9be53835b392ec89a71a946ab9609b0984535e1565d616c61c3b1",
    (6, 2.0): "2b51a0f65ed2984fc9e7a9fc24075b822042e756f565e4249ccdf44aa0e32701",
    (6, 1.3): "6ea3dfda8f0a25b3ad02e3ac25dcc6e4056ff47c69ff3898e6820a989fccd14f",
}


@pytest.mark.parametrize("N", [3, 4, 5, 6])
@pytest.mark.parametrize("alpha", [2.0, 1.3])
def test_family_batch_equals_each_member(N, alpha):
    every = registry(N, alpha)
    Y = _family_stack(N)
    rng = np.random.default_rng(N)
    families = {}
    for r, inv in enumerate(every):
        families.setdefault(inv.family, []).append(r)
    digest = hashlib.sha256()
    for eps in (0.0, 0.01, 0.3):
        vals, ok, dom = evaluate(every, Y, eps)
        assert vals.shape == ok.shape == dom.shape == (len(every), len(Y))
        assert np.isnan(vals).any() and not ok.all() and not dom.all()
        for v, k, d in zip(vals, ok, dom):
            digest.update(_bits(v) + k.tobytes() + d.tobytes())

        def check(rows, got):
            got_vals, got_ok, got_dom = got
            assert _bits(got_vals) == _bits(vals[rows]), (eps, rows)
            assert np.array_equal(got_vals, vals[rows], equal_nan=True)
            assert np.array_equal(got_ok, ok[rows]), (eps, rows)
            assert np.array_equal(got_dom, dom[rows]), (eps, rows)

        shuffled = rng.permutation(len(every))
        check(shuffled, evaluate([every[r] for r in shuffled], Y, eps))
        for rows in families.values():
            check(rows, evaluate([every[r] for r in rows], Y, eps))
            subset = rng.permutation(rows)[:max(1, len(rows) // 2)]
            check(subset, evaluate([every[r] for r in subset], Y, eps))
            for r in rows:
                inv = every[r]
                check([r], evaluate([inv], Y, eps))
                check([r], ([inv.values(Y, eps)], [inv.reliable(Y, eps)],
                            [inv.in_domain(Y, eps)]))
    assert digest.hexdigest() == _FAMILY_SHA[(N, alpha)]


@pytest.mark.parametrize("invs", [registry(3), registry(4), registry(5),
                                  flow_power_integrals(4, 1.3)],
                         ids=["N3", "N4", "N5", "flow-power-alpha-1.3"])
def test_every_family_evaluates_on_interval_stacks(monkeypatch, invs):
    # at the double precision of the float stack, each interval operation
    # encloses the rounded float one, so the enclosure holds the float value
    monkeypatch.setattr(iv, "prec", 53)
    Y = random_starts(3, invs[0].dim, seed=1)
    Y_iv = np.array([[iv.mpf(v) for v in y] for y in Y.tolist()], dtype=object)
    vals, _, dom = evaluate(invs, Y_iv, 0.01)
    float_vals, _, float_dom = evaluate(invs, Y, 0.01)
    assert np.array_equal(dom, float_dom) and dom.all()
    for inv, row, float_row in zip(invs, vals, float_vals):
        assert all(isinstance(v, type(iv.mpf(0))) and f in v
                   for v, f in zip(row, float_row)), inv.name


def _gather_spy(monkeypatch):
    # the (M, k) index array of every `invariants._columns` call
    calls = []
    gather = invariants._columns

    def spy(Y, idx):
        calls.append(idx.shape)
        return gather(Y, idx)

    monkeypatch.setattr(invariants, "_columns", spy)
    return calls


def test_evaluate_shapes_and_dimension_check(monkeypatch):
    invs = cross_ratio_integrals(4) + quartet_integrals()
    vals, ok, dom = evaluate(invs, [1.0, 2.0, 3.0, 4.0])
    assert vals.shape == ok.shape == dom.shape == (len(invs), 1)
    assert evaluate([], np.ones((3, 4)))[0].shape == (0, 3)
    with pytest.raises(DimensionError, match="H13:H12 lives in dimension 4"):
        evaluate(invs, np.ones((2, 5)))
    # a stack that is neither (N,) nor (T, N) is refused, naming its shape,
    # before any formula gathers a column
    calls = _gather_spy(monkeypatch)
    for members in (invs, []):
        with pytest.raises(DimensionError, match=r"got shape \(2, 3, 4\)"):
            evaluate(members, np.full((2, 3, 4), 0.5))
        with pytest.raises(DimensionError, match=r"got shape \(\)"):
            evaluate(members, np.array(0.5))
        with pytest.raises(DimensionError, match="got a ragged sequence"):
            evaluate(members, [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0]])
    assert calls == []


@pytest.mark.parametrize("N", [3, 4, 5, 6])
@pytest.mark.parametrize("alpha", [2.0, 1.3])
def test_each_family_gathers_its_columns_once(monkeypatch, N, alpha):
    every = registry(N, alpha)
    families = {}
    for inv in every:
        families.setdefault(inv.family, []).append(inv)
    Y = _family_stack(N)
    calls = _gather_spy(monkeypatch)
    for eps in (0.0, 0.3):
        calls.clear()
        evaluate(every, Y, eps)
        assert len(calls) == len(families)
        for family, members in families.items():
            for batch in (members, members[:1]):
                calls.clear()
                evaluate(batch, Y, eps)
                # one gather of every member's columns (the cross-ratios
                # gather H_12's pair as one more row)
                (shape,) = calls
                assert shape[0] - len(batch) in (0, 1), family
                assert shape[1] == len(batch[0].index), family


#: the families whose formulas are rational in the state and eps
_RATIONAL_FAMILIES = {"cross-ratio", "euler-poly", "kov-poly", "euler-hk-eps",
                      "kov-hk-eps", "kov-sqrt-eps", "quartet"}


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_rational_families_stay_exact_on_fractions(N):
    # dyadic states with distinct coordinates, inside every rational domain
    rng = np.random.default_rng(N)
    Y = np.array([[Fraction(int(v), 64) for v in rng.permutation(120)[:N] + 7]
                  for _ in range(5)], dtype=object)
    invs = [v for v in registry(N) if v.family in _RATIONAL_FAMILIES]
    assert {v.family for v in invs} == (
        _RATIONAL_FAMILIES - {"quartet"} if N == 3
        else {"cross-ratio", "euler-poly", "quartet"} if N == 4
        else {"cross-ratio", "euler-poly"})
    for eps in (0, Fraction(1, 64), Fraction(-3, 8)):
        vals, _, dom = evaluate(invs, Y, eps)
        assert vals.dtype == object and dom.all()
        for inv, row in zip(invs, vals):
            assert all(type(v) is Fraction for v in row), inv.name
            assert evaluate([inv], Y, eps)[0][0].tolist() == row.tolist(), \
                inv.name


def _undeformed_and_t(inv, Y, eps):
    """(F, F's own guard, t) of an N = 3 eps-family member on a stack Y, by
    its docstring's formula: the value is F / (1 - t)."""
    cols = [Y[:, i] for i in inv.index]
    if inv.family == "euler-hk-eps":
        Ym, Yn, Yj = cols
        return ((Ym - Yn) * (Ym + Yn),
                np.abs(np.abs(Ym) - np.abs(Yn))
                > CANCEL_TOL * (np.abs(Ym) + np.abs(Yn)),
                eps * eps * Yj ** 2)
    Yi, Yj, Yk, *rest = cols
    K_ok = np.abs(Yj - Yk) > CANCEL_TOL * (np.abs(Yj) + np.abs(Yk))
    if inv.family == "kov-hk-eps":
        A = Y[:, 0] + Y[:, 1] + Y[:, 2] - 2 * rest[0]
        return Yi * (Yj - Yk), K_ok, eps * eps * A * A
    Ya, Yb = rest
    return Yi * (Yj - Yk), K_ok, eps * eps * Ya * Yb


_EPS_FAMILIES = {"euler-hk-eps": euler_hk_integrals,
                 "kov-hk-eps": kov_hk_integrals,
                 "kov-sqrt-eps": kov_product_integrals}


def _check_deformed(invs, Y, eps):
    # each member's value is F / (1 - t) bit for bit, and its mask judges
    # that 1 - t: F's guard and |1 - t| > CANCEL_TOL (1 + |t|)
    vals, ok, _ = evaluate(invs, Y, eps)
    for inv, v, k in zip(invs, vals, ok):
        F, F_ok, t = _undeformed_and_t(inv, Y, eps)
        den = 1 - t
        assert _bits(v) == _bits(F / den), (inv.name, eps)
        assert np.array_equal(
            k, F_ok & (np.abs(den) > CANCEL_TOL * (1 + np.abs(t)))), \
            (inv.name, eps)
    return ok


@pytest.mark.parametrize("family", sorted(_EPS_FAMILIES))
def test_eps_family_masks_judge_the_denominator_their_values_divide_by(family):
    # eps scanned over a few ulps either side of the one putting a member's
    # t at either guard edge, t = (1 -+ CANCEL_TOL) / (1 +- CANCEL_TOL)
    invs = _EPS_FAMILIES[family]()
    edges = ((1 - CANCEL_TOL) / (1 + CANCEL_TOL),
             (1 + CANCEL_TOL) / (1 - CANCEL_TOL))
    for r, inv in enumerate(invs):
        Y = random_starts(1, 3, seed=100 + r)
        # t is eps^2 times a factor of the state alone
        c = float(_undeformed_and_t(inv, Y, 1.0)[2][0])
        for edge in edges:
            eps = math.sqrt(edge / c)
            for _ in range(12):
                eps = math.nextafter(eps, 0.0)
            seen = set()
            for _ in range(25):
                seen.add(bool(_check_deformed(invs, Y, eps)[r, 0]))
                eps = math.nextafter(eps, math.inf)
            assert seen == {True, False}, (inv.name, edge)


def test_kov_sqrt_eps_mask_at_a_rounding_split():
    # here eps^2 y_1 y_2 and eps^2 (y_1 y_2) round apart, on either side of
    # the guard: 1 - eps^2 y_1 y_2, the denominator, fails it
    Y = np.array([[0.587675773222263, 3.4788840960661, 1.9]])
    eps = 0.7000763732837336
    invs = kov_product_integrals()
    ok = _check_deformed(invs, Y, eps)
    assert [inv.name for inv, k in zip(invs, ok[:, 0]) if not k] == [
        "K23_sq12", "K31_sq12", "K12_sq12"]


def test_claimed_invariants_pairing():
    invs = registry(4)
    got = {v.family for v in claimed_invariants(gen_hk(4), invs)}
    assert got == {"cross-ratio", "genhk4-phi"}
    got = {v.family for v in claimed_invariants(alt_map(4), invs)}
    assert got == {"cross-ratio", "altmap4-phi"}
    got = {v.family for v in claimed_invariants(generalized_kovalevskaya(4), invs)}
    assert got == {"flow-power", "cross-ratio", "quartet", "quartet-sqrt"}


# the gen-kov flows, each with the registry of its own alpha
_GEN_KOV_CLAIMS = [
    (generalized_kovalevskaya(3, 2.0), 2.0,
     {"flow-power", "cross-ratio", "kov-poly"}),
    (generalized_kovalevskaya(4, 2.0), 2.0,
     {"flow-power", "cross-ratio", "quartet", "quartet-sqrt"}),
    (generalized_kovalevskaya(3, 1.3), 1.3,
     {"flow-power(alpha=1.3)", "cross-ratio"}),
    (generalized_kovalevskaya(4, 1.3), 1.3,
     {"flow-power(alpha=1.3)", "cross-ratio"}),
    (generalized_kovalevskaya(3, 2.5), 2.5,
     {"flow-power(alpha=2.5)", "cross-ratio"}),
    (generalized_kovalevskaya(4, 2.5), 2.5,
     {"flow-power(alpha=2.5)", "cross-ratio"}),
    (generalized_kovalevskaya(4, 2.0, s_coeffs=[1, 0.1, 0, 0]), 2.0,
     {"cross-ratio"}),
    # an alpha that six digits round to 2 is not the alpha = 2 flow
    (generalized_kovalevskaya(4, 2 + 1e-7), 2 + 1e-7,
     {"flow-power(alpha=2.0000001)", "cross-ratio"}),
]


@pytest.mark.parametrize("flow, alpha, families", _GEN_KOV_CLAIMS,
                         ids=[f.name for f, _, _ in _GEN_KOV_CLAIMS])
def test_gen_kov_claims_only_what_it_conserves(flow, alpha, families):
    invs = claimed_invariants(flow, registry(flow.dim, alpha))
    assert {v.family for v in invs} == families
    reports = drift_batch(flow, invs, random_starts(2, flow.dim, seed=1),
                          1e-3, 200)
    assert all(r.first_blowup_step is None for r in reports)
    assert all(r.max_rel_drift < 1e-9 for r in reports), \
        [(r.invariant, r.max_rel_drift) for r in reports]


@pytest.mark.parametrize("alpha", [1.3, 2 + 1e-7])
def test_gen_kov_claims_no_family_of_another_alpha(alpha):
    # flow-power at alpha = 2 drifts by 0.45 along the alpha = 1.3 flow, and
    # the alpha = 2 families by 5e-8 along the alpha = 2 + 1e-7 one
    got = claimed_invariants(generalized_kovalevskaya(4, alpha), registry(4))
    assert {v.family for v in got} == {"cross-ratio"}


def test_single_step_conservation_spotchecks():
    # one application, moderate state: conservation to near machine precision
    rng = np.random.default_rng(61)
    cases = [
        (gen_hk(3), kov_hk_integrals()),
        (kov_sqrt(), kov_product_integrals()),
        (kov_pullback(), kov_product_integrals()),
        (alt_map(3), kov_product_integrals()),
        (euler_hk(), euler_hk_integrals()),
        (cosine_law(), euler_hk_integrals()),
        (gen_hk(4), genhk_n4_integrals()),
        (alt_map(4), altmap_n4_integrals()),
    ]
    for m, invs in cases:
        for _ in range(5):
            y = rng.uniform(0.2, 1.5, m.dim)
            eps = rng.uniform(0.005, 0.05)
            yn = m.step(y, eps)
            for inv in invs:
                before = inv.value(y, eps)
                after = inv.value(yn, eps)
                assert abs(after - before) <= 1e-11 * max(1.0, abs(before)), \
                    (m.name, inv.name)


def test_drift_zero_for_identity_eps():
    rep = drift_report(gen_hk(3), kov_hk_integrals()[0],
                       np.array([0.4, 0.9, 1.3]), 0.0, 1)
    assert rep.max_rel_drift == 0.0
    assert rep.first_blowup_step is None


def test_drift_requires_steps():
    with pytest.raises(ParameterError):
        drift_report(gen_hk(3), kov_hk_integrals()[0],
                     np.array([0.4, 0.9, 1.3]), 0.01, 0)


def test_drift_records_window_end():
    # a start that marches straight into the pole region
    rep = drift_report(gen_hk(4), cross_ratio_integrals(4)[0],
                       np.array([1.0, 1.4, 1.8, 0.6]), 0.01, 10_000)
    assert rep.first_blowup_step is not None
    assert rep.max_rel_drift < 1e-9


def test_drift_batch_aggregates():
    invs = cross_ratio_integrals(4)
    starts = random_starts(6, 4, seed=7)
    reports = drift_batch(gen_hk(4), invs, starts, 0.01, 2000)
    assert len(reports) == len(invs)
    assert all(r.max_rel_drift < 1e-9 for r in reports)
    # determinism: same seed, same answers
    again = drift_batch(gen_hk(4), invs, starts, 0.01, 2000)
    assert [r.max_rel_drift for r in reports] == [r.max_rel_drift for r in again]


def _drift_reference(target, invs, starts, eps, steps):
    """drift_batch's aggregation of per-(start, invariant) drifts, each read
    off that start's own orbit one invariant at a time."""
    per_start = []
    for y0 in starts:
        if isinstance(target, FlowSpec):
            traj, orbit_end, _ = rk4_states(target, y0, eps, steps)
        else:
            traj, orbit_end, _ = target.orbit(y0, eps, steps, TRACKING_GUARDS)
        rows = []
        for inv in invs:
            vals = inv.values(traj, eps)
            dom = inv.in_domain(traj, eps)
            ok = inv.reliable(traj, eps) & np.isfinite(vals)
            end = orbit_end
            if not dom.all():
                cut = int(np.argmin(dom))
                vals, ok = vals[:cut], ok[:cut]
                end = min(end, max(cut - 1, 0))
            idx = np.flatnonzero(ok)
            if idx.size >= 1:
                ref = vals[idx[0]]
                drift = float(np.max(np.abs(vals[idx] - ref)) / max(1.0, abs(ref)))
            else:
                drift = math.nan
            rows.append((drift, int(end) if end < steps else None))
        per_start.append(rows)
    out = []
    for inv, rows in zip(invs, zip(*per_start)):
        drifts = [d for d, _ in rows if not math.isnan(d)]
        ends = [e for _, e in rows if e is not None]
        out.append(DriftReport(map=target.name.split("(")[0], invariant=inv.name,
                               eps=eps, steps=steps,
                               max_rel_drift=max(drifts) if drifts else math.nan,
                               first_blowup_step=min(ends) if ends else None))
    return out


def _same_report(a, b):
    # equal fields of the same Python types: a float drift, an int or None end
    nan_a, nan_b = math.isnan(a.max_rel_drift), math.isnan(b.max_rel_drift)
    types = [(type(r.max_rel_drift), type(r.first_blowup_step)) for r in (a, b)]
    return (a.map, a.invariant, a.eps, a.steps, a.first_blowup_step, nan_a) == \
        (b.map, b.invariant, b.eps, b.steps, b.first_blowup_step, nan_b) \
        and (nan_a or a.max_rel_drift == b.max_rel_drift) \
        and types[0] == types[1] and types[0][0] is float


_DRIFT_TARGETS = (
    [(get_map(name, 4 if name in ("gen-hk", "alt-map") else None), 0.01, 300)
     for name in MAP_NAMES]
    + [(flow, 0.01, 100) for flow in (kovalevskaya3(), euler_top3(),
                                      generalized_kovalevskaya(4),
                                      generalized_euler(4))])


@pytest.mark.parametrize("target, eps, steps", _DRIFT_TARGETS,
                         ids=[t.name for t, _, _ in _DRIFT_TARGETS])
def test_drift_batch_matches_per_invariant_reports(target, eps, steps):
    invs = claimed_invariants(target, registry(target.dim))
    assert invs
    # the claimed list, a shuffled subset of every family at this dimension,
    # and one member alone (as `drift --invariant` passes it)
    every = registry(target.dim)
    mixed = [every[r] for r in np.random.default_rng(target.dim).permutation(
        len(every))[:len(every) * 2 // 3]]
    assert len({v.family for v in mixed}) > 1
    inv_lists = [invs, mixed, [invs[len(invs) // 2]]]
    start_sets = [random_starts(3, target.dim, seed) for seed in (5, 6)]
    if target.name == "gen-hk":
        # outside the positive orthant, the domain of the phi family
        outside = np.array([[-0.5, 0.3, 0.4, 0.6]])
        start_sets += [outside, np.vstack([start_sets[0][:2], outside])]
    for starts in start_sets:
        for chosen in inv_lists:
            got = drift_batch(target, chosen, starts, eps, steps)
            want = _drift_reference(target, chosen, starts, eps, steps)
            assert [r.invariant for r in got] == [v.name for v in chosen]
            for a, b in zip(got, want, strict=True):
                assert _same_report(a, b), (a, b)
    if target.name == "gen-hk":
        # the outside start alone leaves the phi family with nothing
        # certified: its window ends at step 0
        uncertified = [r for r in drift_batch(target, invs, outside, eps, steps)
                       if math.isnan(r.max_rel_drift)]
        assert uncertified
        assert all(r.first_blowup_step == 0 for r in uncertified)


def test_drift_batch_computes_one_orbit_per_start(monkeypatch):
    calls = {"map_orbit": 0, "rk4_orbit": 0}

    def counting(name):
        orig = getattr(kernels, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(kernels, name, counting(name))
    for target, name in ((gen_hk(4), "map_orbit"),
                         (generalized_kovalevskaya(4), "rk4_orbit")):
        invs = claimed_invariants(target, registry(4))
        assert len(invs) > 1
        drift_batch(target, invs, random_starts(3, 4, seed=7), 0.01, 50)
        assert calls[name] == 3, (target.name, calls)
        calls[name] = 0


def test_drift_batch_rejects_bad_arguments():
    invs = cross_ratio_integrals(4)
    with pytest.raises(ParameterError):
        drift_batch(gen_hk(4), invs, np.empty((0, 4)), 0.01, 10)
    with pytest.raises(ParameterError):
        drift_batch(gen_hk(4), invs, [], 0.01, 10)
    with pytest.raises(ParameterError):
        drift_batch(gen_hk(4), invs, random_starts(2, 4, seed=1), 0.01, 0)


def test_library_entry_points_reject_empty_work():
    for n in (0, -1):
        with pytest.raises(ParameterError,
                           match=f"random_starts needs n >= 1 starts, got {n}"):
            random_starts(n, 4, seed=1)
    with pytest.raises(ParameterError, match="eps_list must list at least"):
        convergence_study(euler_hk(), [0.3, 0.4, 0.5], 0.2, [])
    with pytest.raises(ParameterError, match="trials must be >= 1, got 0"):
        identity_battery("d-sum", 4, 0, seed=1)


@pytest.mark.parametrize("count", [10**7 + 1, 10**15, 10**18])
def test_library_entry_points_refuse_a_count_above_max_steps(monkeypatch,
                                                             count):
    # refused before any generator is made or any array allocated
    def refuse(*args, **kwargs):
        raise AssertionError("drew or allocated")

    monkeypatch.setattr(invariants.np, "empty", refuse)
    monkeypatch.setattr(invariants.np.random, "default_rng", refuse)
    with pytest.raises(ParameterError, match=f"MAX_STEPS = 1e\\+07 starts, "
                                             f"got {count}$"):
        random_starts(count, 4, seed=1)
    with pytest.raises(ParameterError, match=f"trials must be <= MAX_STEPS "
                                             f"= 1e\\+07, got {count}$"):
        identity_battery("d-sum", 4, count, seed=1)


def test_random_starts_respects_bounds_and_separation():
    pts = random_starts(50, 4, seed=3)
    assert pts.shape == (50, 4)
    assert np.all((pts >= 0.1) & (pts <= 2.0))
    for y in pts:
        d = np.abs(y[:, None] - y[None, :]) + np.eye(4)
        assert d.min() >= 1e-3


@pytest.mark.parametrize("n", [3, 4, 6])
def test_random_starts_pass_the_cancellation_masks(n):
    # every pair is separated as the reliability masks require
    i, j = np.triu_indices(n, 1)
    for y in random_starts(40, n, seed=n):
        a, b = y[i], y[j]
        assert np.all(np.abs(a - b) > CANCEL_TOL * (np.abs(a) + np.abs(b)))


def test_random_starts_give_up_after_max_start_draws(capsys):
    # a draw at N = 150 is separated with probability about 4e-11, so the
    # sampler once never returned; now the command exits 1 naming N
    argv = ["drift", "--map", "gen-hk", "--n", "150", "--eps", "0.01",
            "--steps", "8", "--starts", "1"]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: no start at N = 150 in MAX_START_DRAWS = 10000 draws has "
        "every coordinate pair separated by CANCEL_TOL = 0.001\n")


def test_random_starts_bound_counts_draws_per_start(monkeypatch):
    # seed 1 at N = 24 makes 36 draws for its 20 starts, at most 4 for one:
    # a bound of 4 keeps the starts, a bound of 3 raises
    full = random_starts(20, 24, seed=1)
    monkeypatch.setattr(invariants, "MAX_START_DRAWS", 4)
    assert random_starts(20, 24, seed=1).tobytes() == full.tobytes()
    monkeypatch.setattr(invariants, "MAX_START_DRAWS", 3)
    with pytest.raises(ParameterError, match="N = 24 in MAX_START_DRAWS = 3 "):
        random_starts(20, 24, seed=1)


def _reference_random_starts(n, dim, seed):
    """The per-draw loop `random_starts` replaced: one uniform draw and one
    Python pair loop at a time.  Also returns each draw's verdict."""
    rng = np.random.default_rng(seed)
    out = np.empty((n, dim))
    verdicts = []
    for row in out:
        for _ in range(invariants.MAX_START_DRAWS):
            y = rng.uniform(0.1, 2.0, dim)
            verdicts.append(all(abs(a - b) > CANCEL_TOL * (abs(a) + abs(b))
                                for a, b in combinations(y.tolist(), 2)))
            if verdicts[-1]:
                row[:] = y
                break
        else:
            raise ParameterError(
                f"no start at N = {dim} in MAX_START_DRAWS = "
                f"{invariants.MAX_START_DRAWS} draws has every coordinate pair "
                f"separated by CANCEL_TOL = {CANCEL_TOL:g}")
    return out, verdicts


@pytest.mark.parametrize("n", [1, 2, 10, 20, 100])
def test_random_starts_match_the_per_draw_loop(n):
    for dim in range(3, 21):
        for seed in range(6):
            want, _ = _reference_random_starts(n, dim, seed)
            assert random_starts(n, dim, seed).tobytes() == want.tobytes(), \
                (n, dim, seed)


def test_random_starts_blocks_hold_only_the_missing_starts(monkeypatch):
    # each block holds at most the starts still missing, so the blocks draw
    # exactly the rows the per-draw loop draws
    cases = [(1, 24, 1), (20, 24, 1), (100, 12, 3), (7, 30, 5)]
    verdicts = [_reference_random_starts(*case)[1] for case in cases]
    blocks = []
    default_rng = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def uniform(self, lo, hi, size):
            blocks.append(size[0])
            return self.rng.uniform(lo, hi, size)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    for (n, dim, seed), verdict in zip(cases, verdicts):
        blocks.clear()
        random_starts(n, dim, seed)
        assert sum(blocks) == len(verdict)
        drawn = 0
        for rows in blocks:
            assert rows <= n - sum(verdict[:drawn]), (n, dim, seed, blocks)
            drawn += rows
    assert sum(v.count(False) for v in verdicts) > 0


def test_random_starts_give_up_as_the_per_draw_loop(monkeypatch):
    # a small bound, so that no loop runs long: raised or returned, the
    # outcome and the message are the loop's
    outcomes = set()
    for bound in (1, 2, 3):
        monkeypatch.setattr(invariants, "MAX_START_DRAWS", bound)
        for dim in (10, 16, 24):
            for seed in range(5):
                try:
                    want = _reference_random_starts(20, dim, seed)[0].tobytes()
                except ParameterError as exc:
                    with pytest.raises(ParameterError) as got:
                        random_starts(20, dim, seed)
                    assert str(got.value) == str(exc)
                    outcomes.add("raised")
                else:
                    assert random_starts(20, dim, seed).tobytes() == want
                    outcomes.add("returned")
    assert outcomes == {"raised", "returned"}


def test_random_starts_of_a_seed_once_drawing_masked_pairs_are_evaluable():
    # this seed once drew (1.736, 0.255, 1.734), whose y_1 and y_3 the masks
    # drop at every point of the window: H13:H12 and K31_sq.. had no drift
    m = alt_map(3)
    reports = drift_batch(m, claimed_invariants(m, registry(3)),
                          random_starts(2, 3, seed=27717635), 0.01, 8)
    assert all(r.max_rel_drift < 1e-14 for r in reports)


def test_volume_checks():
    assert volume_check(gen_hk(4), density_cross_power(0, 1),
                        np.array([1.0, 2.0, 3.0, 4.0]), 0.05) < 1e-5
    assert volume_check(alt_map(5), density_cross_power(0, 1),
                        np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 0.02) < 1e-5
    assert volume_check(euler_hk(), density_euler_hk(2),
                        np.array([0.3, 0.7, 1.1]), 0.05) < 1e-5
    assert volume_check(gen_hk(3), density_kov_hk(0),
                        np.array([0.3, 0.7, 1.1]), 0.05) < 1e-5
    assert volume_check(kov_sqrt(), density_kov_product(0, 2),
                        np.array([0.3, 0.7, 1.1]), 0.05) < 1e-5
    # eps = 0 is the identity map: residual at finite-difference noise level
    assert volume_check(gen_hk(4), density_cross_power(0, 1),
                        np.array([1.0, 2.0, 3.0, 4.0]), 0.0) < 1e-9


def test_density_ratio_is_conserved():
    # ratio of two volume densities is itself an integral of the map
    m = gen_hk(4)
    psi_a, psi_b = density_cross_power(0, 1), density_cross_power(2, 3)
    y = np.array([0.4, 0.9, 1.3, 0.7])
    before = psi_a(y, 0.02) / psi_b(y, 0.02)
    for _ in range(200):
        y = m.step(y, 0.02)
    after = psi_a(y, 0.02) / psi_b(y, 0.02)
    assert abs(after - before) / abs(before) < 1e-10


def test_density_bridge_pointwise():
    # psi = K_ij^(N-1) * phi links the map density to the flow density
    rng = np.random.default_rng(62)
    for N in (3, 4, 5):
        Kij = flow_power_integrals(N)[0]          # pair (1, 2)
        psi = density_cross_power(0, 1)
        phi = density_flow_power(2.0)
        for _ in range(5):
            y = rng.uniform(0.2, 1.8, N)
            lhs = psi(y, 0.0)
            rhs = Kij.value(y) ** (N - 1) * phi(y, 0.0)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_independence_ranks():
    pts3 = admissible_states(5, 3, seed=63)
    assert all(independence_rank(kov_poly_integrals(), y) == 2 for y in pts3)
    assert all(independence_rank(kov_hk_integrals(), y, 0.01) == 2 for y in pts3)
    assert all(independence_rank(kov_product_integrals(), y, 0.01) == 2
               for y in pts3)
    pts4 = admissible_states(5, 4, seed=64)
    assert all(independence_rank(flow_power_integrals(4), y) == 3 for y in pts4)
    assert all(independence_rank(cross_ratio_integrals(4), y, 0.01) == 2
               for y in pts4)
    assert all(independence_rank(genhk_n4_integrals(), y, 0.01) == 3 for y in pts4)
    assert all(independence_rank(altmap_n4_integrals(), y, 0.01) == 3 for y in pts4)


def _reference_gradients(invs, y, eps):
    """Per-point central differences: 2N scalar Invariant.value calls per
    invariant, each on its own copy of y."""
    y = np.asarray(y, dtype=float)
    G = np.zeros((len(invs), y.shape[0]))
    for r, inv in enumerate(invs):
        for i in range(y.shape[0]):
            h = DEFAULT_SCALE * (1.0 + abs(y[i]))
            up = y.copy()
            dn = y.copy()
            up[i] += h
            dn[i] -= h
            G[r, i] = (inv.value(up, eps) - inv.value(dn, eps)) / (2.0 * h)
    return G


def _gradients_or_domain_error(fn, invs, y, eps):
    try:
        return fn(invs, y, eps)
    except DomainError as exc:
        return exc


def _gradient_points(N, seed):
    pts = list(random_starts(6, N, seed))
    base = pts[0]
    edge = [base.copy() for _ in range(4)]
    edge[0][1] = -base[1]        # outside the positive orthant
    edge[1][2] = 5e-7            # the down-step of y_3 crosses zero
    edge[2][0] = 0.0             # a zero coordinate
    edge[3][1] = edge[3][0]      # y_1 = y_2, off every cross-ratio domain
    return pts + edge


def _check_stacks(invs, pts, wants, eps):
    """Stacks of the points against the per-point loop's gradients `wants`
    (a DomainError where the loop raised one)."""
    bad = [k for k, w in enumerate(wants) if isinstance(w, DomainError)]
    good = [k for k in range(len(pts)) if k not in bad]
    # the evaluable points in one stack: the loop's gradients and ranks
    Y = np.array(pts)[good]
    want = np.array([wants[k] for k in good]).reshape(
        len(good), len(invs), Y.shape[1])
    assert np.array_equal(invariant_gradients(invs, Y, eps), want)
    assert independence_rank(invs, Y, eps) == \
        [_reference_rank(invs, pts[k], eps) for k in good]
    # a stack with points outside the domain raises what the loop raises
    # first: the first bad point's first bad invariant
    for order in (range(len(pts)), range(len(pts) - 1, -1, -1)):
        first = next((k for k in order if k in bad), None)
        if first is None:
            continue
        with pytest.raises(DomainError) as got:
            independence_rank(invs, np.array(pts)[list(order)], eps)
        assert str(got.value) == str(wants[first])
    for k in bad:
        for at in (0, len(good) // 2, len(good)):
            with pytest.raises(DomainError) as got:
                invariant_gradients(invs, np.insert(Y, at, pts[k], axis=0), eps)
            assert str(got.value) == str(wants[k])


@pytest.mark.parametrize("N", [3, 4, 5, 6])
@pytest.mark.parametrize("alpha", [2.0, 1.3])
def test_stacked_gradients_match_per_point_reference(N, alpha):
    families = {}
    for inv in registry(N, alpha):
        families.setdefault(inv.family, []).append(inv)
    outcomes = set()
    for invs in families.values():
        pts = _gradient_points(N, seed=10 * N + int(alpha * 10))
        for eps in (0.0, 0.01, 5.0):
            wants = [_gradients_or_domain_error(_reference_gradients, invs, y,
                                                eps) for y in pts]
            for y, want in zip(pts, wants):
                got = _gradients_or_domain_error(invariant_gradients, invs, y, eps)
                if isinstance(want, DomainError):
                    assert isinstance(got, DomainError), (invs[0].family, y, eps)
                    assert str(got) == str(want), (invs[0].family, y, eps)
                else:
                    assert not isinstance(got, DomainError), \
                        (invs[0].family, y, eps)
                    assert np.array_equal(got, want), (invs[0].family, y, eps)
                outcomes.add(isinstance(want, DomainError))
            _check_stacks(invs, pts, wants, eps)
    assert outcomes == {True, False}


def test_a_stack_names_its_first_bad_point_and_that_points_first_bad_invariant():
    # member r is defined where y_r > 0; the second point is off member 1's
    # domain, the third off member 0's: the loop stops at the second point
    def positive(Y, eps, idx):
        cols = Y.T[idx[:, 0]]
        return cols, None, cols > 0

    invs = [Invariant(name=f"y{r}", dim=3, family="positive", claimed_for=(),
                      formula=positive, index=(r,)) for r in range(3)]
    stack = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, 1.0]])
    with pytest.raises(DomainError, match="^y1 undefined at this point$"):
        invariant_gradients(invs, stack[1], 0.0)
    for fn in (invariant_gradients, independence_rank):
        with pytest.raises(DomainError, match="^y1 undefined at this point$"):
            fn(invs, stack, 0.0)
        with pytest.raises(DomainError, match="^y0 undefined at this point$"):
            fn(invs, stack[::-1], 0.0)
    assert independence_rank(invs, stack[:1], 0.0) == [3]


def test_independence_rank_evaluates_each_invariant_once(monkeypatch):
    # the family formula runs once, for all 18 members, on the 8-point
    # stencil of a point, and on the 80 stencil points of 10 points, as for
    # `independence --points 10`
    calls = []
    formula = altmap_n4_integrals()[0].formula

    def counting(Y, eps, idx):
        calls.append((Y.shape, idx.shape))
        return formula(Y, eps, idx)

    invs = [replace(v, formula=counting) for v in altmap_n4_integrals()]
    assert independence_rank(invs, np.array([0.4, 0.9, 1.3, 0.7]), 0.01) == 3
    assert calls == [((8, 4), (18, 6))]
    calls.clear()
    assert independence_rank(invs, random_starts(10, 4, seed=1), 0.01) == [3] * 10
    assert calls == [((80, 4), (18, 6))]
    calls.clear()
    monkeypatch.setattr(cli, "registry", lambda n, alpha=2.0: invs)
    assert main(["independence", "--family", "altmap4-phi", "--n", "4",
                 "--points", "10", "--format", "json"]) == 0
    assert calls == [((80, 4), (18, 6))]


def test_a_long_stack_ranks_in_blocks_as_its_points_rank_alone(monkeypatch):
    # 2500 points cross two block edges; no gradient call takes more than a
    # block, and every row is validated before the first block is ranked
    invs = cross_ratio_integrals(4)
    pts = random_starts(2500, 4, seed=5)
    want = [independence_rank(invs, y, 0.01) for y in pts]
    sizes = []
    gradients = invariants.invariant_gradients

    def spy(invs, Y, eps):
        sizes.append(len(Y))
        return gradients(invs, Y, eps)

    monkeypatch.setattr(invariants, "invariant_gradients", spy)
    assert independence_rank(invs, pts, 0.01) == want
    assert sizes == [1024, 1024, 452]
    sizes.clear()
    pts[10, 1] = pts[10, 0]             # off every cross-ratio domain
    with pytest.raises(DomainError, match="^H13:H12 undefined at this point$"):
        independence_rank(invs, pts, 0.01)
    pts[2400, 2] = np.nan               # a bad row past the first block
    with pytest.raises(DomainError, match="^state coordinates must be finite$"):
        independence_rank(invs, pts, 0.01)
    assert sizes == [1024]


def _reference_rank(invs, y, eps):
    # the per-row normalization independence_rank replaced
    G = invariant_gradients(invs, y, eps)
    for r in range(G.shape[0]):
        norm = np.linalg.norm(G[r])
        if norm > 1e-12:
            G[r] /= norm
    s = np.linalg.svd(G, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > invariants.RANK_RTOL * s[0]))


def test_independence_rank_matches_the_row_loop():
    # criterion 6's inputs, and a member with a zero gradient, which keeps
    # its zero row
    def constant(Y, eps, idx):
        return np.zeros((len(idx), len(Y))), None, None

    zero = replace(cross_ratio_integrals(4)[0], name="zero", formula=constant)
    checks = [(kov_poly_integrals(), 3, 0.0), (kov_hk_integrals(), 3, 0.01),
              (kov_product_integrals(), 3, 0.01),
              (genhk_n4_integrals(), 4, 0.01), (altmap_n4_integrals(), 4, 0.01),
              ([zero], 4, 0.0), (cross_ratio_integrals(4) + [zero], 4, 0.01)]
    for n in (3, 4, 5):
        checks += [(flow_power_integrals(n), n, 0.0),
                   (flow_power_integrals(n, 1.3), n, 0.0),
                   (cross_ratio_integrals(n), n, 0.01)]
    for invs, n, eps in checks:
        for y in admissible_states(10, n, seed=106 + n):
            assert independence_rank(invs, y, eps) == \
                _reference_rank(invs, y, eps), (invs[0].family, y)
    y = admissible_states(1, 4, seed=110)[0]
    assert independence_rank([zero], y) == 0
    assert independence_rank(cross_ratio_integrals(4) + [zero], y, 0.01) == 2


def _reference_defect_order(map_, candidate, y0, eps_list):
    # defect_order with F taken at the image and at y0 by two scalar values
    eps_arr = np.asarray(list(eps_list), dtype=float)
    y0 = np.asarray(y0, dtype=float)
    raw = np.array([abs(candidate.value(map_.step(y0, e), e)
                        - candidate.value(y0, e)) for e in eps_arr])
    keep = raw > invariants.DEFECT_FLOOR
    if np.sum(keep) < 2:
        return math.inf
    rate = raw[keep] / (map_.scale.factor * eps_arr[keep])
    return float(np.polyfit(np.log(eps_arr[keep]), np.log(rate), 1)[0])


def _outcome(call):
    try:
        return call()
    except DomainError as exc:
        return DomainError, str(exc)


_DEFECT_EPS = [0.05, 0.04, 0.03, 0.02, 0.01]


@pytest.mark.parametrize("m, inv, y0, eps_list", [
    # criterion 8's five cases
    (gen_hk(3), kov_hk_integrals()[0], [0.3, 0.4, 0.5], _DEFECT_EPS),
    (gen_hk(4), genhk_n4_integrals()[0], [0.3, 0.4, 0.5, 0.6], _DEFECT_EPS),
    (alt_map(4), altmap_n4_integrals()[0], [0.3, 0.4, 0.5, 0.6], _DEFECT_EPS),
    (kov_pullback(), kov_poly_integrals()[0], [0.3, 0.4, 0.5], _DEFECT_EPS),
    (gen_hk(5), flow_power_integrals(5)[0], [0.3, 0.4, 0.5, 0.6, 0.7],
     _DEFECT_EPS),
    # off the positive orthant at y0, and at the image of eps = 0.5 only
    (gen_hk(3), flow_power_integrals(3)[0], [-0.3, 0.4, 0.5], _DEFECT_EPS),
    (gen_hk(3), flow_power_integrals(3)[0],
     [2.1083681046896094, 0.1913063182483747, 2.7917303600179144],
     [0.5, 0.4]),
], ids=["gen-hk-3", "gen-hk-4", "alt-map-4", "kov-pullback", "gen-hk-5",
        "start-off-domain", "image-off-domain"])
def test_defect_order_matches_two_scalar_values(m, inv, y0, eps_list):
    got = _outcome(lambda: defect_order(m, inv, y0, eps_list))
    assert got == _outcome(lambda: _reference_defect_order(m, inv, y0,
                                                            eps_list))
    assert type(got) is float or got == (DomainError,
                                         "K12_flow undefined at this point")


def test_defect_order_sentinel_for_exact_integrals():
    eps_list = [0.05, 0.04, 0.03, 0.02, 0.01]
    y3 = np.array([0.3, 0.4, 0.5])
    assert defect_order(gen_hk(3), kov_hk_integrals()[0], y3, eps_list) == math.inf
    y4 = np.array([0.3, 0.4, 0.5, 0.6])
    assert defect_order(gen_hk(4), genhk_n4_integrals()[0], y4, eps_list) == math.inf


def test_defect_order_flow_integral_under_map():
    # eps-independent K_mn drifts at rate O(eps^2) under the pulled-back map
    slope = defect_order(kov_pullback(), kov_poly_integrals()[0],
                         np.array([0.3, 0.4, 0.5]), [0.05, 0.04, 0.03, 0.02, 0.01])
    assert 1.85 < slope < 2.15


def test_defect_order_validates_eps_list():
    with pytest.raises(ParameterError):
        defect_order(gen_hk(3), kov_poly_integrals()[0],
                     np.array([0.3, 0.4, 0.5]), [0.01, 0.02])


def test_phi_functional_equation():
    assert verify_phi_functional_equation(
        3, np.array([1.0, 2.0, 3.0]), 0.05, phi_genhk3(0)) < 1e-12
    assert verify_phi_functional_equation(
        4, np.array([1.0, 2.0, 3.0, 4.0]), 0.05, phi_genhk4(0)) < 1e-12
    assert verify_phi_functional_equation(
        3, np.array([1.0, 2.0, 3.0]), 0.0, lambda y, e: 1.0) == 0.0


def test_phi_variants_are_integrand_factors():
    # every partition variant solves the same functional equation
    y = np.array([0.7, 1.1, 0.4, 1.6])
    for p in range(3):
        assert verify_phi_functional_equation(4, y, 0.04, phi_genhk4(p)) < 1e-12


def test_alt_phi_closed_forms_conserved():
    # K_mn * phi for the alternative map, via its own integrals
    m3 = alt_map(3)
    y = np.array([0.5, 0.9, 1.4])
    eps = 0.06
    yn = m3.step(y, eps)
    K = y[0] * (y[1] - y[2])
    Kn = yn[0] * (yn[1] - yn[2])
    assert abs(Kn * phi_alt3(0, 1)(yn, eps) - K * phi_alt3(0, 1)(y, eps)) < 1e-13
    m4 = alt_map(4)
    y = np.array([0.5, 0.9, 1.4, 0.7])
    yn = m4.step(y, eps)
    inv = altmap_n4_integrals()[0]
    assert abs(inv.value(yn, eps) - inv.value(y, eps)) < 1e-13
    assert phi_alt4(0)(y, eps) > 0


def test_poly_identity_n4():
    assert _poly_n4_residual([1.0, 2.0, 3.0, 4.0], 0.1) < 1e-13
    assert _poly_n4_residual([1.0, 2.0, 3.0, 4.0], 0.0) == 0.0
    assert _poly_n4_residual([1.0, 1.0, 1.0, 1.0], 0.3) < 1e-13


def test_poly_identity_n4_exact_oracle():
    # brute-force rational arithmetic: D_i D_j - e^2 y_i y_j (1+e y_k)^2 (1+e y_l)^2
    # equals (1 - e^2 y_k y_l) D for every pair partition
    ys = [Fraction(2, 3), Fraction(5, 7), Fraction(11, 4), Fraction(1, 6)]
    e = Fraction(3, 11)

    def esp(vals, k):
        return sum((np.prod([vals[i] for i in c], initial=Fraction(1))
                    for c in combinations(range(len(vals)), k)), Fraction(0))

    def D_of(vals):
        n = len(vals)
        return Fraction(1) - sum(e ** k * (k - 1) * esp(vals, k)
                                 for k in range(2, n + 1))

    D = D_of(ys)
    for (i, j), (k, l) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        Di = D_of([ys[m] for m in range(4) if m != i])
        Dj = D_of([ys[m] for m in range(4) if m != j])
        lhs = Di * Dj - e ** 2 * ys[i] * ys[j] * (1 + e * ys[k]) ** 2 * (1 + e * ys[l]) ** 2
        rhs = (1 - e ** 2 * ys[k] * ys[l]) * D
        assert lhs == rhs


def test_relation_qq_both_maps():
    assert _relation_qq_residual(gen_hk(5), [1.0, 2.0, 3.0, 4.0, 5.0],
                                 0.02) < 1e-13
    assert _relation_qq_residual(alt_map(4), [1.0, 2.0, 3.0, 4.0],
                                 0.05) < 1e-13
    assert _relation_qq_residual(gen_hk(3), [1.0, 2.0, 3.0], 0.0) < 1e-15
    with pytest.raises(DomainError):
        _relation_qq_residual(gen_hk(3), [1.0, 1.0, 3.0], 0.05)


def test_relation_qq_alt_equals_r_factor():
    from kovtop.maps import _r_factor
    y = np.array([1.0, 2.0, 3.0, 4.0])
    eps = 0.05
    m = alt_map(4)
    yn = m.step(y, eps)
    lhs = (yn[0] - yn[1]) / (yn[0] * yn[1]) * (y[0] * y[1]) / (y[0] - y[1])
    assert abs(lhs - _r_factor(y.tolist(), eps)) < 1e-14


def test_drift_serialization():
    reports = [DriftReport("gen-hk", "H13:H12", 0.01, 100, 1.5e-12, None),
               DriftReport("alt-map", "K12_alt4p1", 0.01, 100, 2.5e-13, 42)]
    csv = drift_to_csv(reports)
    lines = csv.strip().split("\n")
    assert lines[0] == "map,invariant,eps,steps,max_rel_drift,first_blowup_step"
    assert lines[1].startswith("gen-hk,H13:H12,0.01")
    assert lines[1].endswith(",")          # no blowup -> empty field
    assert lines[2].endswith(",42")
    data = json.loads(drift_to_json(reports))
    assert data["status"] == "ok"
    assert data["reports"][0]["first_blowup_step"] is None
    assert data["reports"][1]["first_blowup_step"] == 42


def _edge_reports():
    # every drift edge at one (map, eps, steps); eps 0.0 and -0.0, NaN and
    # inf in one list, with and without shared objects; quoted, percent and
    # non-ASCII names; maps mixed in one list
    drifts = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308,
              1.5e-12, 0.1]
    names = ['H13:H12', 'say "hi"', '100% K', '%s%%', 'K\u00e9', '\u2211 H',
             '\\n', '\U0001d43b']
    out = [DriftReport("gen-hk", names[k % len(names)], 0.01, 8, d,
                       None if k % 3 else k)
           for k, d in enumerate(drifts)]
    for eps in (0.0, -0.0, 0.0, math.nan, math.inf, -math.inf, -0.0, 5e-324):
        out += [DriftReport("alt-map", name, eps, 100, 2.5e-13, blow)
                for name, blow in (("K12_alt4p1", 0), ("H%", None))]
    shared = 0.0, -0.0
    out += [DriftReport("kov-sqrt", f"I{k}", shared[k % 2], 10, 0.5, 7)
            for k in range(4)]
    out += [DriftReport('m"%', "x", -0.0, 0, math.nan, 0),
            DriftReport("gen-hk", "H13:H12", 0.01, 8, 1e-300, None)]
    return out


@pytest.mark.parametrize("cut", [0, 1, 2, 9, None])
def test_drift_writers_match_the_json_dumps_and_fmt17_references(cut):
    # forwards and backwards, so that runs of shared fields break elsewhere
    reports = _edge_reports()[:cut]
    for order in (reports, reports[::-1]):
        assert drift_to_json(order) == reference_drift_json(order)
        assert drift_to_csv(order) == reference_drift_csv(order)


@pytest.mark.parametrize("name, n", [("gen-hk", 4), ("alt-map", 4),
                                     ("euler-hk", None), ("kov-sqrt", None)])
def test_drift_writers_match_the_references_on_batch_reports(name, n):
    m = get_map(name, n)
    invs = claimed_invariants(m, registry(m.dim))
    for eps, steps in ((0.01, 8), (0.3, 50), (-0.0, 3)):
        reports = drift_batch(m, invs, random_starts(3, m.dim, 1), eps, steps)
        assert drift_to_json(reports) == reference_drift_json(reports)
        assert drift_to_csv(reports) == reference_drift_csv(reports)


def test_readme_states_the_tracking_guards_of_the_loop():
    # the drift harness runs tracked map orbits, and README's "Drift
    # certification windows" states the thresholds their loop is bound with
    assert TRACKING_GUARDS is True
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = " ".join(text.split("\n## Drift certification windows\n")[1]
                       .split("\n## ")[0].split())
    number = r"(\d[\d.e-]*)"
    claims = [(rf"denominator factor below {number}\)", kernels.STRAIN_FLOOR),
              (rf"`\|eps\| \* max\|y\| > {number}`", kernels.RESOLUTION_BOUND),
              (rf"within {number} relative", kernels.COINCIDENCE_DEPTH)]
    for pattern, value in claims:
        assert [float(v) for v in re.findall(pattern, section)] == [value]


def test_registry_drift_property_all_map_pairs():
    # every (map, invariant) pair declared in the registry stays below 1e-9
    # over 1e3 steps at eps = 0.01 from 20 seeded admissible starts
    targets = [gen_hk(3), kov_sqrt(), kov_pullback(), alt_map(3), euler_hk(),
               cosine_law(), gen_hk(4), alt_map(4)]
    for m in targets:
        invs = claimed_invariants(m, registry(m.dim))
        assert invs, m.name
        starts = random_starts(20, m.dim, seed=97)
        reports = drift_batch(m, invs, starts, 0.01, 1000)
        for r in reports:
            assert not math.isnan(r.max_rel_drift), (m.name, r.invariant)
            assert r.max_rel_drift < 1e-9, (m.name, r.invariant, r.max_rel_drift)


_IDENTITY_CASES = [(name, n) for name, (_, _, dims) in IDENTITIES.items()
                   for n in (dims or (3, 4, 5, 6))]


@pytest.mark.parametrize("name, n", _IDENTITY_CASES,
                         ids=[f"{name}-N{n}" for name, n in _IDENTITY_CASES])
def test_identity_table_entries_hold(name, n):
    assert identity_battery(name, n, 25, seed=3) < 1e-12


@pytest.mark.parametrize("name", [name for name, (_, _, dims)
                                  in IDENTITIES.items()
                                  if dims is not None and len(dims) == 1])
def test_identity_with_one_dimension_ignores_the_requested_one(name):
    (only,) = IDENTITIES[name][2]
    assert identity_battery(name, 6, 10, seed=4) == \
        identity_battery(name, only, 10, seed=4)


def test_identity_battery_rejects_unsupported_dimension():
    with pytest.raises(DimensionError,
                       match="phi-eq is defined for N = 3 or 4, not N = 5"):
        identity_battery("phi-eq", 5, 10, seed=1)


def test_identity_battery_needs_evaluable_trials():
    # the one drawn trial of this seed lands on a singular engine step
    with pytest.raises(ParameterError, match="only 0/1 trials"):
        identity_battery("engine", 24, 1, seed=15)


# the start of random_starts(20, N, seed=1) with the largest cross-ratio
# drift for each map, and the level README ("Drift certification windows")
# claims for its dimension
@pytest.mark.parametrize("m, worst, bound", [
    (gen_hk(4), 15, 1e-9), (alt_map(4), 15, 1e-9), (gen_hk(5), 8, 1e-9),
    (gen_hk(3), 15, 1e-7), (alt_map(3), 15, 1e-7), (kov_sqrt(), 15, 1e-7),
], ids=["gen-hk-N4", "alt-map-N4", "gen-hk-N5", "gen-hk-N3", "alt-map-N3",
        "kov-sqrt"])
def test_cross_ratios_conserved_over_whole_unguarded_orbits(monkeypatch, m,
                                                           worst, bound):
    monkeypatch.setattr("kovtop.invariants.TRACKING_GUARDS", False)
    starts = random_starts(20, m.dim, seed=1)[[0, worst]]
    reports = drift_batch(m, cross_ratio_integrals(m.dim), starts, 0.01,
                          10_000)
    assert all(r.first_blowup_step is None for r in reports)
    assert max(r.max_rel_drift for r in reports) < bound


@pytest.mark.parametrize("call, error, message", [
    (lambda: drift_batch("gen-hk", [], [[0.2, 0.3, 0.4, 0.5]], 0.01, 8),
     TypeError, "cannot iterate str"),
    (lambda: density_flow_power()([-1.0, 1.0, 2.0], 0.0), DomainError,
     "flow volume density needs the positive orthant"),
    (lambda: verify_phi_functional_equation(4, [-0.1, 0.2, 0.3, 0.4], 0.01,
                                            phi_genhk4()), DomainError,
     "functional equation check needs positive coordinates"),
    (lambda: IDENTITIES["step-ratio"][0]([0.0, 0.2, 0.3, 0.4], 0.01),
     DomainError, "relation needs nonzero coordinates"),
], ids=["drift-of-a-name", "flow-density-orthant", "phi-eq-orthant",
        "step-ratio-zero"])
def test_invariant_checks_reject_what_they_cannot_evaluate(call, error,
                                                           message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("name", list(MAP_NAMES) + list(FLOW_NAMES))
def test_every_target_claims_an_invariant(name):
    # the drift command needs no check for a target without one
    dims = range(3, 9) if name in ("gen-hk", "alt-map", "gen-kov",
                                   "gen-euler") else (3,)
    alphas = (2.0, 1.3, 0.0, -0.0) if name == "gen-kov" else (2.0,)
    for n in dims:
        for alpha in alphas:
            target = (get_map(name, n) if name in MAP_NAMES
                      else get_flow(name, n, alpha))
            assert claimed_invariants(target, registry(n, alpha)), (n, alpha)
