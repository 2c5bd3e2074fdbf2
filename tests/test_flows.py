import math
import re
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mpf

from conftest import admissible_states
from kovtop.errors import BlowupError, DimensionError, ParameterError
from kovtop.flows import (euler_field, euler_top3, generalized_euler,
                          generalized_kovalevskaya, integrate_reference,
                          kovalevskaya3, kovalevskaya_field, quadratic_flow,
                          rk4_states, verify_hyperelliptic_relation)
from kovtop.invariants import (cross_ratio_integrals, flow_power_integrals,
                               kov_poly_integrals)
from kovtop import flows, kernels
from kovtop.kernels import esp_all


def test_kovalevskaya3_rhs_examples():
    f = kovalevskaya3()
    np.testing.assert_allclose(f([1.0, 2.0, 3.0]), [4.0, 4.0, 0.0])
    np.testing.assert_allclose(f([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])
    np.testing.assert_allclose(f([1.0, 1.0, 1.0]), [1.0, 1.0, 1.0])


def test_generalized_kovalevskaya_examples():
    f = generalized_kovalevskaya(4, 2.0)
    np.testing.assert_allclose(f([1.0, 1.0, 1.0, 1.0]), [2.0, 2.0, 2.0, 2.0])
    np.testing.assert_allclose(f([0.0, 0.0, 0.0, 0.0]), np.zeros(4))


def test_generalized_matches_kov3():
    f3 = kovalevskaya3()
    g = generalized_kovalevskaya(3, 2.0)
    for y in admissible_states(10, 3, seed=1):
        np.testing.assert_allclose(g(y), f3(y), rtol=1e-14)


def test_alpha_equal_N_rejected():
    with pytest.raises(ParameterError):
        generalized_kovalevskaya(4, 4.0)


def test_euler_top_examples():
    f = euler_top3()
    np.testing.assert_allclose(f([1.0, 2.0, 3.0]), [6.0, 3.0, 2.0])
    np.testing.assert_allclose(f([0.7, 0.0, 0.0]), [0.0, 0.0, 0.0])
    np.testing.assert_allclose(f([1.0, 1.0, 1.0]), [1.0, 1.0, 1.0])


def test_generalized_euler_examples():
    f = generalized_euler(4)
    np.testing.assert_allclose(f([1.0, 2.0, 3.0, 4.0]), [24.0, 12.0, 8.0, 6.0])
    np.testing.assert_allclose(f([0.0, 0.0, 1.5, 2.5]), np.zeros(4))
    f3 = generalized_euler(3)
    e3 = euler_top3()
    for x in admissible_states(5, 3, seed=2):
        np.testing.assert_allclose(f3(x), e3(x))


def test_rk4_diagonal_closed_form():
    # on the diagonal the flow is dy/dt = y^2, so y(t) = 1/(1 - t)
    traj = integrate_reference(kovalevskaya3(), [1.0, 1.0, 1.0], 0.5, 1e-3)
    np.testing.assert_allclose(traj.states[-1], [2.0, 2.0, 2.0], atol=1e-9)


@pytest.mark.parametrize("field, flow", [
    (kovalevskaya_field(3), generalized_kovalevskaya(3)),
    (kovalevskaya_field(4), generalized_kovalevskaya(4)),
    (euler_field(), euler_top3()),
], ids=["kov-N3", "kov-N4", "euler"])
def test_quadratic_flow_tracks_closed_form_flow(field, flow):
    # the coefficient-tensor right-hand side runs through the same RK4 kernel
    for y0 in admissible_states(3, flow.dim, seed=11, low=0.05, high=0.3):
        a, end_a, _ = rk4_states(quadratic_flow(field), y0, 1e-3, 500)
        b, end_b, _ = rk4_states(flow, y0, 1e-3, 500)
        assert end_a == end_b == 500
        assert np.max(np.abs(a - b)) < 1e-12


def test_rk4_zero_time():
    traj = integrate_reference(euler_top3(), [1.0, 2.0, 3.0], 0.0, 1e-3)
    assert len(traj.states) == 1
    np.testing.assert_array_equal(traj.states[0], [1.0, 2.0, 3.0])


def test_rk4_requires_divisible_step():
    with pytest.raises(ParameterError):
        integrate_reference(euler_top3(), [1.0, 2.0, 3.0], 0.5, 0.15)


def test_euler_E_drift_small():
    # this flow blows up near t = 0.51 from (1,2,3); 0.3 stays well inside
    traj = integrate_reference(euler_top3(), [1.0, 2.0, 3.0], 0.3, 1e-3)
    E12 = traj.states[:, 0] ** 2 - traj.states[:, 1] ** 2
    assert np.max(np.abs(E12 - E12[0])) / abs(E12[0]) < 1e-9


def test_blowup_raises_with_time():
    with pytest.raises(BlowupError) as err:
        integrate_reference(euler_top3(), [1.0, 2.0, 3.0], 1.0, 1e-3)
    assert 0.4 < err.value.last_time < 0.6


def test_kov3_integrals_conserved_along_flow():
    for y0 in admissible_states(5, 3, seed=3, low=0.05, high=0.3):
        traj = integrate_reference(kovalevskaya3(), y0, 1.0, 1e-3)
        for inv in kov_poly_integrals():
            vals = inv.values(traj.states)
            drift = np.max(np.abs(vals - vals[0])) / max(1.0, abs(vals[0]))
            assert drift < 1e-8, (inv.name, drift)


@pytest.mark.parametrize("N,alpha", [(3, 2.0), (4, 2.0), (4, 1.3), (5, 0.5)])
def test_power_integrals_conserved_along_flow(N, alpha):
    flow = generalized_kovalevskaya(N, alpha)
    # keep the finite-time pole beyond t = 1: weak damping needs smaller starts
    high = 0.3 if alpha >= 1 else 0.15
    for y0 in admissible_states(3, N, seed=4, low=0.03, high=high, min_sep=5e-3):
        traj = integrate_reference(flow, y0, 1.0, 1e-3)
        for inv in flow_power_integrals(N, alpha):
            vals = inv.values(traj.states)
            drift = np.max(np.abs(vals - vals[0])) / max(1.0, abs(vals[0]))
            assert drift < 1e-8, (inv.name, drift)


def test_generalized_euler_conserves_square_differences():
    flow = generalized_euler(4)
    traj = integrate_reference(flow, [0.21, 0.13, 0.27, 0.09], 1.0, 1e-3)
    X = traj.states
    for i in range(4):
        for j in range(i + 1, 4):
            E = X[:, i] ** 2 - X[:, j] ** 2
            assert np.max(np.abs(E - E[0])) < 1e-8 * max(1.0, abs(E[0]))


def test_cross_ratios_survive_custom_symmetric_s():
    # s = e_2(y): the ratio family must still be conserved
    coeffs = [0.0, 1.0, 0.0, 0.0]
    flow = generalized_kovalevskaya(4, 2.0, s_coeffs=coeffs)
    for y0 in admissible_states(3, 4, seed=5, low=0.05, high=0.3):
        traj = integrate_reference(flow, y0, 1.0, 1e-3)
        for inv in cross_ratio_integrals(4):
            vals = inv.values(traj.states)
            drift = np.max(np.abs(vals - vals[0])) / max(1.0, abs(vals[0]))
            assert drift < 1e-8, (inv.name, drift)


def test_H_decay_law_any_symmetric_s():
    # d/dt log|H_ij| = -s along the flow, for s = e_1 + 0.5*e_2
    coeffs = [1.0, 0.5, 0.0, 0.0]
    flow = generalized_kovalevskaya(4, 2.0, s_coeffs=coeffs)
    dt = 1e-3
    traj = integrate_reference(flow, [0.11, 0.23, 0.17, 0.29], 0.5, dt)
    Y = traj.states
    H = (Y[:, 0] - Y[:, 1]) / (Y[:, 0] * Y[:, 1])
    logH = np.log(np.abs(H))
    dlog = (logH[2:] - logH[:-2]) / (2.0 * dt)
    e = np.array([esp_all(y) for y in Y[1:-1]])
    s = e[:, 1] + 0.5 * e[:, 2]
    assert np.max(np.abs(dlog + s)) < 1e-5


def _same_floats(a, b):
    # equal in float bits, any NaN equal to any NaN
    return len(a) == len(b) and all(
        type(x) is type(y) is float
        and (x != x and y != y
             or x == y and math.copysign(1, x) == math.copysign(1, y))
        for x, y in zip(a, b))


def _e1_only_states(N, seed):
    # signed coordinates from 1e-300 up to 1000 times past the bound
    # 10^(300/N) - 1 under which the e_1-only right-hand side skips e_2..e_N,
    # and states whose every coordinate lies just under or just over it
    rng = np.random.default_rng(seed)
    bound = 10.0 ** (300 / N) - 1
    states = [rng.choice([-1.0, 1.0], N) * 10.0 ** rng.uniform(-300, 300 / N + 3, N)
              for _ in range(150)]
    for low, high in ((-0.5, 0.0), (0.0, 1.0)):
        states += [rng.choice([-1.0, 1.0], N) * bound * 10.0 ** rng.uniform(low, high, N)
                   for _ in range(75)]
    states += [np.full(N, bound), np.full(N, -bound),
               np.full(N, math.nextafter(bound, math.inf)),
               np.r_[bound, -bound, np.zeros(N - 2)], np.r_[-0.0, np.ones(N - 1)]]
    for bad in (math.nan, math.inf, -math.inf):
        for y in states[:20]:
            y = y.copy()
            y[rng.integers(N)] = bad
            states.append(y)
    return [y.tolist() for y in states]


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7, 8, 40])
@pytest.mark.parametrize("alpha,c1", [(2.0, None), (1.3, None), (2.0, 2.0)])
def test_e1_only_rhs_matches_full_symmetric_sum(N, alpha, c1):
    # c1 None is the default flow, s = e_1; else s_coeffs = [c1, 0, ..., 0]
    sc = [1.0 if c1 is None else c1] + [0.0] * (N - 1)
    flow = generalized_kovalevskaya(N, alpha, None if c1 is None else sc)
    for y in _e1_only_states(N, seed=N):
        assert _same_floats(flow.rhs(y),
                            kernels._rhs_scaled_quadratic(y, alpha, sc)), y


@pytest.mark.parametrize("num", [Fraction, mpf])
def test_e1_only_rhs_keeps_the_full_sum_types(num):
    y = [num(k) / 10 for k in (1, -3, 7, 2)]
    got = generalized_kovalevskaya(4, 1.3).rhs(y)
    want = kernels._rhs_scaled_quadratic(y, 1.3, [1.0, 0.0, 0.0, 0.0])
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("emit", [flows._emit_e1_only,
                                  flows._emit_product_complement])
@pytest.mark.parametrize("n", [2, 3, 4, 40])
def test_flow_emitters_write_no_multiplication_by_one(emit, n):
    ins, outs = [f"u{i}" for i in range(n)], [f"k{i}" for i in range(n)]
    # x * 1 and 1 * x return x: tests/test_rk4_step.py checks the bits
    # against references that keep them.  Emitters write 1.0
    source = "\n".join(emit(ins, outs))
    assert not re.search(r"(?<![\w.])1(\.0)? \*|\* 1(\.0)?(?![\w.])",
                         source), source


@pytest.mark.parametrize("emit", [flows._emit_e1_only,
                                  flows._emit_product_complement,
                                  flows._emit_call])
@pytest.mark.parametrize("n", [3, 4, 40])
def test_flow_orbits_write_only_the_cap_test(emit, n):
    # rk4_orbit runs a flow unguarded, so its orbit takes no tracking
    # switch and writes no strain, resolution or coincidence test, and no
    # regularity
    source = kernels._source(kernels._flow_template, emit, (), n)
    head = "def map_orbit(y, eps, nsteps):"
    assert source.count(head) == 1
    body = source.replace(head, "")
    for word in ("tracking", "even", "strain", "resolution", "coincidence",
                 "sorted", "reg"):
        assert not re.search(rf"\b{word}\b", body), word
    assert "'cap'" in body and "'non-finite'" in body


def test_hyperelliptic_relation_n3():
    traj = integrate_reference(generalized_euler(3), [1.0, 2.0, 3.0], 0.5, 1e-3)
    assert verify_hyperelliptic_relation(3, traj) < 1e-8


def test_hyperelliptic_relation_n4():
    # from (1,2,3,4) this flow blows up near t = 0.086
    traj = integrate_reference(generalized_euler(4), [1.0, 2.0, 3.0, 4.0], 0.05, 1e-3)
    assert verify_hyperelliptic_relation(4, traj) < 1e-8


def test_hyperelliptic_relation_equilibrium():
    traj = integrate_reference(generalized_euler(4), [0.0, 0.0, 1.5, 2.5], 0.1, 1e-3)
    assert verify_hyperelliptic_relation(4, traj) < 1e-12


def test_s_coeffs_need_one_coefficient_per_e_k():
    with pytest.raises(ParameterError) as exc:
        generalized_kovalevskaya(4, s_coeffs=[1.0, 0.0])
    assert str(exc.value) == "s_coeffs must list one coefficient per e_1..e_N"


def test_hyperelliptic_relation_rejects_another_dimension():
    traj = integrate_reference(generalized_euler(3), [1.0, 2.0, 3.0], 0.0, 1e-3)
    with pytest.raises(DimensionError) as exc:
        verify_hyperelliptic_relation(4, traj)
    assert str(exc.value) == "trajectory dimension does not match N"
