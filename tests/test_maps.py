import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import admissible_states
from kovtop.core import MapStepScale
from kovtop.errors import (DimensionError, DomainError, ParameterError,
                           SingularStepError)
from kovtop.flows import FLOW_NAMES, get_flow, kovalevskaya_field
from kovtop.hk_engine import hk_step, polarize
from kovtop.maps import (MAP_NAMES, OrbitGuards, _d_factors, _d_polynomial,
                         _r_factor, _r_reciprocity_residual,
                         _s_relation_residuals, alt_map, cosine_law, euler_hk,
                         gen_hk, get_map, kov_pullback, kov_sqrt)

state3 = st.lists(st.floats(0.1, 2.0), min_size=3, max_size=3).map(np.array)
small_eps = st.floats(0.005, 0.1)


# --- frozen example values ---------------------------------------------------

def test_euler_hk_examples():
    m = euler_hk()
    np.testing.assert_allclose(m.step([1.0, 0.0, 0.0], 0.2), [1.0, 0.0, 0.0])
    np.testing.assert_allclose(m.step([1.0, 1.0, 1.0], 0.1), [1.25] * 3, rtol=1e-14)
    np.testing.assert_allclose(m.step([1.0, 2.0, 3.0], 0.0), [1.0, 2.0, 3.0])
    assert m.scale is MapStepScale.TWO_EPS


def test_cosine_examples():
    m = cosine_law()
    np.testing.assert_allclose(m.step([1.0, 2.0, 3.0], 0.0), [1.0, 2.0, 3.0])
    np.testing.assert_allclose(m.step([1.0, 0.0, 0.0], 0.3), [1.0, 0.0, 0.0])
    assert m.scale is MapStepScale.EPS


def test_cosine_domain_error_names_index():
    with pytest.raises(DomainError, match="index 3"):
        cosine_law().step([0.1, 0.2, 5.0], 0.3)


def test_cosine_square_is_euler_hk():
    m, full = cosine_law(), euler_hk()
    x = np.array([0.3, 0.4, 0.5])
    np.testing.assert_allclose(m.step(m.step(x, 0.1), 0.1), full.step(x, 0.1),
                               atol=1e-12)


def test_kov_sqrt_examples():
    m = kov_sqrt()
    np.testing.assert_allclose(m.step([1.0, 1.0, 1.0], 0.1), [10 / 9] * 3,
                               rtol=1e-14)
    np.testing.assert_allclose(m.step([1.0, 2.0, 3.0], 0.0), [1.0, 2.0, 3.0])


def test_kov_sqrt_square_is_pullback():
    m, full = kov_sqrt(), kov_pullback()
    y = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(m.step(m.step(y, 0.05), 0.05), full.step(y, 0.05),
                               atol=1e-12)


def test_pullback_examples():
    m = kov_pullback()
    np.testing.assert_allclose(m.step([1.0, 2.0, 3.0], 0.0), [1.0, 2.0, 3.0])
    # oracle: two square-root steps on the diagonal give 1/(1 - 2 eps)
    np.testing.assert_allclose(m.step([1.0, 1.0, 1.0], 0.1), [1.25] * 3,
                               rtol=1e-13)
    assert m.scale is MapStepScale.TWO_EPS


def test_gen_hk_examples():
    m = gen_hk(4)
    np.testing.assert_allclose(m.step([1.0, 1.0, 1.0, 1.0], 0.1), [5 / 3] * 4,
                               rtol=1e-14)
    np.testing.assert_allclose(m.step([1.0, 2.0, 3.0, 4.0], 0.0),
                               [1.0, 2.0, 3.0, 4.0])


def test_gen_hk_diagonal_step():
    # from the diagonal point (1, 1, 1, 1) one step gives 1/(1 - 4 eps)
    out = gen_hk(4).step(np.array([1.0, 1.0, 1.0, 1.0]), 0.1)
    assert abs(out[0] - 5 / 3) < 1e-14


def test_gen_hk_matches_engine():
    rng = np.random.default_rng(41)
    for N in range(3, 9):
        sys = polarize(kovalevskaya_field(N))
        m = gen_hk(N)
        for _ in range(5):
            y = rng.uniform(0.1, 2.0, N)
            eps = rng.uniform(0.005, 0.08)
            np.testing.assert_allclose(m.step(y, eps), hk_step(sys, y, eps),
                                       atol=1e-12)


def test_alt_map_examples():
    np.testing.assert_allclose(alt_map(3).step([1.0, 1.0, 1.0], 0.1),
                               [10 / 9] * 3, rtol=1e-14)
    np.testing.assert_allclose(alt_map(4).step([1.0, 1.0, 1.0, 1.0], 0.1),
                               [1.25] * 4, rtol=1e-14)
    np.testing.assert_allclose(alt_map(4).step([1.0, 2.0, 3.0, 4.0], 0.0),
                               [1.0, 2.0, 3.0, 4.0])


def test_alt_map_n3_is_kov_sqrt():
    a, s = alt_map(3), kov_sqrt()
    for y in admissible_states(10, 3, seed=42):
        np.testing.assert_allclose(a.step(y, 0.07), s.step(y, 0.07), atol=1e-13)


@settings(deadline=None, max_examples=40)
@given(state3, small_eps)
def test_reversibility_three_dim_maps(y, eps):
    for m in (euler_hk(), cosine_law(), kov_sqrt(), kov_pullback()):
        back = m.step(m.step(y, eps), -eps)
        np.testing.assert_allclose(back, y, rtol=1e-11, atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(0.1, 2.0), min_size=5, max_size=5).map(np.array),
       small_eps)
def test_reversibility_general_maps(y, eps):
    for m in (gen_hk(5), alt_map(5)):
        back = m.step(m.step(y, eps), -eps)
        np.testing.assert_allclose(back, y, rtol=1e-11, atol=1e-12)


def test_singular_step_raises():
    # S = 1 - 4 eps vanishes on the diagonal at eps = 0.25
    with pytest.raises(SingularStepError, match="S vanished"):
        gen_hk(4).step([1.0, 1.0, 1.0, 1.0], 0.25)


def test_vanishing_d_factor_is_named():
    # eps = 1 zeroes d_1 = 1 - eps*(-4*y_1 + s); S is then 0/0 = NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularStepError) as err:
            gen_hk(4).step([0.0, 0.0, 0.0, 1.0], 1.0)
    assert str(err.value) == "gen-hk: denominator d_1 vanished"


def test_get_map_lookup():
    assert get_map("euler-hk").dim == 3
    assert get_map("gen-hk", 5).dim == 5
    with pytest.raises(DimensionError):
        get_map("gen-hk")
    with pytest.raises(KeyError):
        get_map("nope")
    with pytest.raises(DimensionError):
        get_map("cosine", 4)


# the targets of fixed dimension 3; every other name takes any N >= 3
_THREE_DIMENSIONAL = ("euler-hk", "cosine", "kov-sqrt", "kov-pullback",
                      "kov3", "euler3")


def _look_up(name, *args):
    return (get_map if name in MAP_NAMES else get_flow)(name, *args)


@pytest.mark.parametrize("name", MAP_NAMES + FLOW_NAMES)
def test_maps_and_flows_are_looked_up_by_one_rule(name):
    if name in _THREE_DIMENSIONAL:
        assert _look_up(name).dim == _look_up(name, 3).dim == 3
        for n in (2, 4, 5):
            with pytest.raises(DimensionError,
                               match=f"^{name} is three-dimensional$"):
                _look_up(name, n)
    else:
        with pytest.raises(DimensionError,
                           match=f"^{name} needs an explicit dimension$"):
            _look_up(name)
        assert [_look_up(name, n).dim for n in (3, 4, 5)] == [3, 4, 5]


def test_lookup_of_an_unknown_name_raises_key_error():
    for look_up, name in ((get_map, "nope"), (get_map, "kov3"),
                          (get_flow, "nope"), (get_flow, "gen-hk")):
        with pytest.raises(KeyError, match=f"unknown .* '{name}'; known: "):
            look_up(name, 4)


def test_alpha_reaches_gen_kov_only():
    y = [0.3, 0.5, 0.7, 1.1]
    moved, base = get_flow("gen-kov", 4, 1.3), get_flow("gen-kov", 4)
    assert (moved.name, base.name) == ("gen-kov(N=4,alpha=1.3)",
                                       "gen-kov(N=4,alpha=2)")
    assert not np.array_equal(moved(y), base(y))
    for name, n in (("gen-euler", 4), ("kov3", 3), ("euler3", 3)):
        a, b = get_flow(name, n, 1.3), get_flow(name, n)
        assert a.name == b.name and np.array_equal(a(y[:n]), b(y[:n]))
    with pytest.raises(ParameterError, match="alpha must differ from N"):
        get_flow("gen-kov", 4, 4.0)


def test_orbit_stops_on_guards():
    m = gen_hk(4)
    y0 = np.array([1.0, 1.4, 1.8, 0.6])
    traj, end, _ = m.orbit(y0, 0.01, 10_000,
                        OrbitGuards(strain=0.01, resolution=0.2, coincidence=1e-6))
    assert end < 10_000
    assert traj.shape == (end + 1, 4)
    assert 0.01 * np.max(np.abs(traj)) <= 0.2 + 1e-12


def test_orbit_matches_repeated_steps():
    m = alt_map(4)
    y0 = np.array([0.3, 0.5, 0.7, 0.9])
    traj, end, _ = m.orbit(y0, 0.02, 50)
    assert end == 50
    y = y0
    for k in range(1, 51):
        y = m.step(y, 0.02)
        np.testing.assert_allclose(traj[k], y, rtol=1e-14)
    # every map: orbit and step run the same kernel
    for m in (euler_hk(), cosine_law(), kov_sqrt(), kov_pullback(), gen_hk(4),
              alt_map(5)):
        traj, end, _ = m.orbit(np.linspace(0.3, 0.9, m.dim), 0.01, 50)
        assert end == 50, m.name
        for k in range(end):
            assert np.array_equal(m.step(traj[k], 0.01), traj[k + 1]), m.name


# --- scalar machinery --------------------------------------------------------
#
# The R, D, d_i and S cores take the list of a state's coordinates.

def test_r_and_d_examples():
    y = [1.0, 1.0, 1.0]
    assert abs(_r_factor(y, 0.1) - 8 / 11) < 1e-15
    assert abs(_d_polynomial(y, 0.1) - 0.968) < 1e-15
    assert _r_factor(y, 0.0) == 1.0
    assert _d_polynomial(y, 0.0) == 1.0
    # R * prod(1 + eps*y_j) = D
    assert abs(_r_factor(y, 0.1) * 1.1 ** 3 - _d_polynomial(y, 0.1)) < 1e-15


def _esp_exact(ys, k):
    return sum((np.prod([ys[i] for i in c], initial=Fraction(1))
                for c in combinations(range(len(ys)), k)), Fraction(0))


def _d_exact(ys, e):
    n = len(ys)
    return Fraction(1) - sum(e ** k * (k - 1) * _esp_exact(ys, k)
                             for k in range(2, n + 1))


def test_r_product_identity_exact():
    # exact-arithmetic oracle: R * prod(1 + eps*y_j) == D as rational numbers
    ys = [Fraction(1, 3), Fraction(2, 5), Fraction(7, 4), Fraction(3, 2)]
    e = Fraction(1, 7)
    R = 1 - e * sum(y / (1 + e * y) for y in ys)
    prod = np.prod([1 + e * y for y in ys], initial=Fraction(1))
    assert R * prod == _d_exact(ys, e)


def test_d_sum_is_four_exact():
    ys = [Fraction(5, 7), Fraction(1, 2), Fraction(9, 4), Fraction(8, 3)]
    e = Fraction(2, 9)
    s = sum(ys)
    d = [1 - e * (-4 * y + s) for y in ys]
    assert sum(d) == 4


def test_d_sum_is_four_double():
    rng = np.random.default_rng(43)
    for _ in range(20):
        y = rng.uniform(0.1, 2.0, 4)
        d, _S = _d_factors(y.tolist(), rng.uniform(0.01, 0.3))
        assert abs(sum(d) - 4.0) < 1e-14


def test_d_polynomial_without_a_coordinate():
    y = np.array([0.7, 1.1, 1.9, 0.4])
    eps = 0.13
    for i in range(4):
        reduced = np.delete(y, i)
        e2 = sum(reduced[a] * reduced[b] for a, b in combinations(range(3), 2))
        e3 = np.prod(reduced)
        expect = 1 - eps ** 2 * e2 - 2 * eps ** 3 * e3
        assert abs(_d_polynomial(reduced.tolist(), eps) - expect) < 1e-14


def test_r_factor_without_a_coordinate():
    y = np.array([0.7, 1.1, 1.9, 0.4])
    eps = 0.09
    rest = np.delete(y, 2)
    expect = 1 - eps * np.sum(rest / (1 + eps * rest))
    assert abs(_r_factor(rest.tolist(), eps) - expect) < 1e-15


def test_s_relations():
    r1, r2 = _s_relation_residuals([1.0, 2.0, 3.0, 4.0], 0.03)
    assert r1 < 1e-13 and r2 < 1e-13
    r1, r2 = _s_relation_residuals([1.0, 2.0, 3.0, 4.0], 0.0)
    assert r1 == 0.0 and r2 == 0.0
    # diagonal closed form: S = 0.6, s_new = 4 * 5/3, S*(1 + eps*s_new) = 1
    _, S = _d_factors([1.0, 1.0, 1.0, 1.0], 0.1)
    assert abs(S * (1 + 0.1 * 4 * (5 / 3)) - 1.0) < 1e-15


def test_r_reciprocity():
    assert _r_reciprocity_residual([1.0, 2.0, 3.0, 4.0], 0.05) < 1e-13
    assert _r_reciprocity_residual([1.0, 2.0, 3.0, 4.0], 0.0) == 0.0
    assert _r_reciprocity_residual([0.3, 0.4, 0.5], 0.2) < 1e-13
