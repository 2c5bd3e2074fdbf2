"""The list-level central_jacobian against the ndarray routine it replaced.

Volume forms (criterion 2) and flow conjugacies (criterion 5) must come out
bit for bit as before, and a stencil point outside a map's domain or on its
singular variety must raise what `DiscreteMap.step` raises there.  The
stencils run through `DiscreteMap.stepper`, which must return
`checked_step`'s lists and raise what it raises, at every point.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import admissible_states
from kovtop import invariants
from kovtop.changevar import conjugacy_check, gen_cv, linear_cv, nonlinear_cv3
from kovtop.core import as_state
from kovtop.errors import DomainError, SingularStepError
from kovtop.flows import (euler_top3, generalized_euler,
                          generalized_kovalevskaya, kovalevskaya3)
from kovtop.invariants import (density_cross_power, density_euler_hk,
                               density_kov_hk, density_kov_product,
                               volume_check)
from kovtop.maps import (DiscreteMap, alt_map, cosine_law, euler_hk, gen_hk,
                         kov_pullback, kov_sqrt)
from kovtop.numdiff import DEFAULT_SCALE, central_jacobian
from test_float_binding import _spy


def _reference_jacobian(f, y, scale=DEFAULT_SCALE):
    # the ndarray routine central_jacobian replaced: one call of f at y for
    # the output shape, then one ndarray difference per column
    y = np.asarray(y, dtype=float)
    f0 = np.asarray(f(y), dtype=float)
    J = np.empty((f0.shape[0], y.shape[0]))
    for i in range(y.shape[0]):
        h = scale * (1.0 + abs(y[i]))
        up = y.copy()
        dn = y.copy()
        up[i] += h
        dn[i] -= h
        J[:, i] = (np.asarray(f(up), dtype=float)
                   - np.asarray(f(dn), dtype=float)) / (2.0 * h)
    return J


def _reference_volume_check(map_, psi, y, eps):
    y = as_state(y, map_.dim)
    p0 = float(psi(y, eps))
    if not np.isfinite(p0) or p0 == 0.0:
        raise DomainError("volume density vanishes or is undefined at y")
    ynew = map_.step(y, eps)
    p1 = float(psi(ynew, eps))
    J = float(np.linalg.det(_reference_jacobian(
        lambda z: map_.step(z, eps), y)))
    return abs(J - p1 / p0) / abs(J)


def _reference_flow_conjugacy(cv, upstream, downstream, x):
    x = as_state(x, cv.dim)
    J = _reference_jacobian(cv.forward, x)
    return float(np.max(np.abs(J @ upstream(x) - downstream(cv.forward(x)))))


def _volume_cases():
    cases = [(euler_hk(), [density_euler_hk(j) for j in range(3)], 0.05),
             (gen_hk(3), [density_kov_hk(j) for j in range(3)], 0.05),
             (kov_sqrt(), [density_kov_product(0, 1),
                           density_kov_product(1, 2)], 0.05),
             (kov_pullback(), [density_kov_product(0, 1),
                               density_kov_product(2, 0)], 0.05)]
    for n in (3, 4, 5, 6):
        psis = [density_cross_power(0, 1), density_cross_power(n - 2, n - 1)]
        cases += [(gen_hk(n), psis, 0.05), (alt_map(n), psis, 0.02)]
    return cases


@pytest.mark.parametrize("m, psis, eps", _volume_cases(),
                         ids=[f"{m.name}-N{m.dim}" for m, _, _ in _volume_cases()])
def test_volume_check_matches_the_ndarray_jacobian_bit_for_bit(m, psis, eps):
    for y in admissible_states(20, m.dim, seed=1201):
        fast = central_jacobian(lambda z: m.checked_step(z, eps), y)
        slow = _reference_jacobian(lambda z: m.step(z, eps), y)
        assert fast.flags.c_contiguous
        assert fast.shape == slow.shape and fast.tobytes() == slow.tobytes()
        for psi in psis:
            assert volume_check(m, psi, y, eps) == \
                _reference_volume_check(m, psi, y, eps)


_FLOW_CASES = [(linear_cv(), euler_top3(), kovalevskaya3(), 0.2),
               (nonlinear_cv3(), euler_top3(), kovalevskaya3(), 0.2)] + [
    (gen_cv(n), generalized_euler(n), generalized_kovalevskaya(n, 2.0), 0.3)
    for n in (3, 4, 5)]


@pytest.mark.parametrize("cv, up, down, low", _FLOW_CASES,
                         ids=[cv.name for cv, _, _, _ in _FLOW_CASES])
def test_flow_conjugacy_matches_the_ndarray_jacobian_bit_for_bit(cv, up, down,
                                                                 low):
    rng = np.random.default_rng(1205)
    for _ in range(20):
        x = rng.uniform(low, 1.2, cv.dim)
        J = central_jacobian(cv.forward, x)
        assert J.flags.c_contiguous
        assert J.tobytes() == _reference_jacobian(cv.forward, x).tobytes()
        assert conjugacy_check(cv, up, down, x, 0.0) == \
            _reference_flow_conjugacy(cv, up, down, x)


def _raised(call):
    with pytest.raises((DomainError, SingularStepError)) as info:
        call()
    return type(info.value), str(info.value)


def test_cosine_stencil_leaving_the_domain_raises_as_step_does():
    m, eps = cosine_law(), 1.0
    y = np.array([0.5, 1.0 - 1e-9, 1.0 - 1e-9])   # eps^2 y_j^2 < 1 at y
    m.step(y, eps)
    psi = density_euler_hk(0)
    got = _raised(lambda: volume_check(m, psi, y, eps))
    assert got == _raised(lambda: _reference_volume_check(m, psi, y, eps))
    assert got == (DomainError,
                   "cosine-law map needs eps^2*x_j^2 < 1; violated at index 2")


def test_gen_hk_stencil_on_a_vanishing_d_factor_raises_as_step_does():
    # d_1 = 1 - eps*(-3*y_1 + y_2 + y_3 + y_4) vanishes at y_1 + h_1 with
    # y_4 raised by 6e-6, but not at y itself
    m, eps = gen_hk(4), 0.1
    y = np.array([1.0, 4.0, 4.0, 5.0 + 6.000006e-6])
    m.step(y, eps)
    psi = density_cross_power(0, 1)
    got = _raised(lambda: volume_check(m, psi, y, eps))
    assert got == _raised(lambda: _reference_volume_check(m, psi, y, eps))
    assert got == (SingularStepError, "gen-hk: denominator d_1 vanished")


def test_checked_step_error_carries_the_stencil_point():
    m, eps = gen_hk(4), 0.1
    z = [1.0, 4.0, 4.0, 5.0]      # d_1 = 1 - 0.1*10 is exactly 0
    with pytest.raises(SingularStepError) as info:
        m.checked_step(z, eps)
    assert info.value.state.tolist() == z and info.value.eps == eps
    with pytest.raises(SingularStepError) as step_info:
        m.step(z, eps)
    assert str(step_info.value) == str(info.value)
    assert step_info.value.state.tolist() == z


def test_checked_step_is_the_step_on_lists():
    for m in (euler_hk(), cosine_law(), kov_sqrt(), kov_pullback(), gen_hk(5),
              alt_map(4)):
        for y in admissible_states(5, m.dim, seed=1207):
            out = m.checked_step(y.tolist(), 0.05)
            assert type(out) is list
            assert np.array(out).tobytes() == m.step(y, 0.05).tobytes()


# --- one image and one det J per point ------------------------------------------

@pytest.fixture
def jacobians(monkeypatch):
    """Counts the Jacobians `volume_check` computes, from an empty cache."""
    count = [0]

    def counted(f, y):
        count[0] += 1
        return central_jacobian(f, y)

    invariants._last_image = (None, b"", None)
    monkeypatch.setattr(invariants, "central_jacobian", counted)
    yield count
    invariants._last_image = (None, b"", None)


def test_densities_at_one_point_share_its_jacobian(jacobians):
    m, eps = euler_hk(), 0.05
    psis = [density_euler_hk(j) for j in range(3)]
    pts = admissible_states(5, 3, seed=102)
    for y in pts:
        for psi in psis:
            volume_check(m, psi, y, eps)
    assert jacobians[0] == 5
    # the one entry is the last point: coming back to a point recomputes it
    jacobians[0] = 0
    for y in (pts[0], pts[1], pts[0]):
        for psi in psis:
            volume_check(m, psi, y, eps)
    assert jacobians[0] == 3


@pytest.mark.parametrize("m, psis, eps", _volume_cases(),
                         ids=[f"{m.name}-N{m.dim}" for m, _, _ in _volume_cases()])
def test_a_point_costs_its_stencil_and_one_det(jacobians, monkeypatch, m,
                                               psis, eps):
    # the image and 2N stencil points are steps of the float binding, none
    # of them through checked_step, and det J is taken once, however many
    # densities are checked at the point
    checked, dets = [0], [0]
    checked_step, det = DiscreteMap.checked_step, np.linalg.det

    def counted_step(self, y, e):
        checked[0] += 1
        return checked_step(self, y, e)

    def counted_det(a):
        dets[0] += 1
        return det(a)

    steps = _spy(monkeypatch, m.kernel)
    monkeypatch.setattr(DiscreteMap, "checked_step", counted_step)
    monkeypatch.setattr(np.linalg, "det", counted_det)
    for y in admissible_states(5, m.dim, seed=1213):
        steps.clear()
        checked[0] = jacobians[0] = dets[0] = 0
        for psi in psis + psis:
            volume_check(m, psi, y, eps)
        assert (len(steps), checked[0], jacobians[0], dets[0]) == \
            (2 * m.dim + 1, 0, 1, 1)


@pytest.mark.parametrize("m, psis, eps", _volume_cases(),
                         ids=[f"{m.name}-N{m.dim}" for m, _, _ in _volume_cases()])
def test_volume_check_is_bit_identical_in_either_loop_order(m, psis, eps):
    pts = admissible_states(5, m.dim, seed=1211)
    fresh = {(k, i): _reference_volume_check(m, psi, y, eps)
             for k, y in enumerate(pts) for i, psi in enumerate(psis)}
    point_major = {(k, i): volume_check(m, psi, y, eps)
                   for k, y in enumerate(pts) for i, psi in enumerate(psis)}
    density_major = {(k, i): volume_check(m, psi, y, eps)
                     for i, psi in enumerate(psis) for k, y in enumerate(pts)}
    assert point_major == fresh and density_major == fresh


def _sign_of_first(y, eps):
    # 1 or 3 as the first coordinate is -0.0 or 0.0
    return 2.0 + math.copysign(1.0, y[0])


@pytest.mark.parametrize("m, first, second", [
    # gen-hk keeps the sign of a zero coordinate in its image
    (gen_hk(3), ([0.0, 0.3, 0.5], 0.05), ([-0.0, 0.3, 0.5], 0.05)),
    # euler-hk's image of -0.0 is 0.0 at eps 0.0 and -0.0 at eps -0.0
    (euler_hk(), ([-0.0, 0.3, 0.5], 0.0), ([-0.0, 0.3, 0.5], -0.0)),
], ids=["y", "eps"])
def test_signed_zeros_are_new_points(jacobians, m, first, second):
    got = [volume_check(m, _sign_of_first, y, eps) for y, eps in (first,
                                                                   second)]
    assert jacobians[0] == 2
    # the second image differs from the first in the sign of a zero, which
    # _sign_of_first reads
    assert got == [_reference_volume_check(m, _sign_of_first, y, eps)
                   for y, eps in (first, second)]


def test_another_map_at_the_same_point_is_a_new_point(jacobians):
    # the memo compares the map itself: euler-hk after gen-hk at the same y
    # and eps steps again
    y, eps, psi = [0.3, 0.5, 0.7], 0.05, density_euler_hk(0)
    got = [volume_check(m, psi, y, eps) for m in (gen_hk(3), euler_hk())]
    assert jacobians[0] == 2
    assert got == [_reference_volume_check(m, psi, y, eps)
                   for m in (gen_hk(3), euler_hk())]


@pytest.mark.parametrize("y", [[1.0, 4.0, 4.0, 5.0 + 6.000006e-6],
                               [1.0, 4.0, 4.0, 5.0]],
                         ids=["stencil", "step"])
def test_a_singular_point_raises_on_every_density(jacobians, y):
    # d_1 vanishes on a stencil point of the first y and at the second y
    m, eps = gen_hk(4), 0.1
    psis = [density_cross_power(0, 1), density_cross_power(2, 3)]
    for psi in psis + psis:
        with pytest.raises(SingularStepError,
                           match="gen-hk: denominator d_1 vanished"):
            volume_check(m, psi, y, eps)
    assert invariants._last_image == (None, b"", None)


# --- the one-dispatch stepper against checked_step ---------------------------

def _stencil(y):
    # y and the 2N points central_jacobian steps, in its order
    pts = [list(y)]
    for i, yi in enumerate(y):
        h = DEFAULT_SCALE * (1.0 + abs(yi))
        for v in (yi + h, yi - h):
            z = list(y)
            z[i] = v
            pts.append(z)
    return pts


def _outcome(step, z):
    # the step's list with its element types, or what it raised: class,
    # message and, for a singular step, the state and eps it carries
    try:
        out = step(list(z))
    except (DomainError, SingularStepError) as exc:
        state = getattr(exc, "state", None)
        return (type(exc), str(exc),
                None if state is None else state.tobytes(),
                getattr(exc, "eps", None))
    assert type(out) is list
    return [type(v) for v in out], out, np.array(out).tobytes()


def _same_steps(m, y, eps):
    step = m.stepper(y, eps)
    got = [_outcome(step, z) for z in _stencil(y)]
    assert got == [_outcome(lambda z: m.checked_step(z, eps), z)
                   for z in _stencil(y)]
    return got


@pytest.mark.parametrize("m, psis, eps", _volume_cases(),
                         ids=[f"{m.name}-N{m.dim}" for m, _, _ in _volume_cases()])
def test_stepper_is_checked_step_on_every_volume_stencil(m, psis, eps):
    # criterion 2's points: the image and every stencil point, byte for byte
    for y in admissible_states(50, m.dim, seed=102):
        y = y.tolist()
        seen = []
        central_jacobian(lambda z: seen.append(list(z)) or [0.0], y)
        assert seen == _stencil(y)[1:]
        # a step's outcome holds its list, a raise's its message
        assert all(type(got[1]) is list for got in _same_steps(m, y, eps))


@pytest.mark.parametrize("eps", [0.05, -0.3, 0.9])
def test_stepper_is_checked_step_on_the_cosine_law_map(eps):
    for y in admissible_states(50, 3, seed=1215, high=1.0):
        _same_steps(cosine_law(), y.tolist(), eps)


@pytest.mark.parametrize("m, y, eps, raised", [
    # eps^2 x_j^2 < 1 at y, not at y_2 + h_2
    (cosine_law(), [0.5, 1.0 - 1e-9, 1.0 - 1e-9], 1.0,
     (DomainError, "cosine-law map needs eps^2*x_j^2 < 1; violated at index 2")),
    # d_1 vanishes at y_1 + h_1, not at y
    (gen_hk(4), [1.0, 4.0, 4.0, 5.0 + 6.000006e-6], 0.1,
     (SingularStepError, "gen-hk: denominator d_1 vanished")),
    # d_1 is exactly 0 at y: the kernel divides by zero
    (gen_hk(4), [1.0, 4.0, 4.0, 5.0], 0.1,
     (SingularStepError, "gen-hk: denominator d_1 vanished")),
    # q overflows: the image is NaN at a regularity of inf
    (euler_hk(), [1e200, 1e200, 1e200], 0.05,
     (SingularStepError, "euler-hk: step denominator vanished")),
], ids=["cosine-stencil-domain", "gen-hk-stencil-d1", "gen-hk-image-d1",
        "euler-hk-non-finite-image"])
def test_stepper_raises_what_checked_step_raises(m, y, eps, raised):
    got = _same_steps(m, y, eps)
    assert raised in [outcome[:2] for outcome in got]


@pytest.mark.parametrize("m", [gen_hk(4), alt_map(4), euler_hk(),
                               kov_pullback()], ids=lambda m: m.name)
def test_a_fraction_point_runs_the_integer_binding(monkeypatch, m):
    floats = _spy(monkeypatch, m.kernel)
    y = [Fraction(k, 8) for k in (1, 3, 5, 7)][:m.dim]
    eps = Fraction(1, 64)
    step = m.stepper(y, eps)
    for z in ([y] + [[v + Fraction(1, 2 ** 20) if j == i else v
                      for j, v in enumerate(y)] for i in range(m.dim)]):
        out = step(z)
        assert out == m.checked_step(z, eps)
        assert all(type(v) is Fraction for v in out)
    assert floats == []
