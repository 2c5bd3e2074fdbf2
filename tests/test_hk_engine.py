import numpy as np
import pytest

from conftest import admissible_states
from kovtop.errors import SingularStepError
from kovtop.flows import (euler_field, euler_top3, integrate_reference,
                          kovalevskaya_field, quadratic_flow)
from kovtop.hk_engine import hk_step, polarize
from kovtop.numdiff import central_jacobian


def test_identity_at_zero_eps():
    sys = polarize(euler_field())
    for x in admissible_states(5, 3, seed=11):
        A = sys.matrix_builder(x, 0.0)
        np.testing.assert_array_equal(A, np.eye(3))
        np.testing.assert_allclose(hk_step(sys, x, 0.0), x)


def test_matrix_affine_in_eps_and_y():
    sys = polarize(kovalevskaya_field(3))
    rng = np.random.default_rng(7)
    y1, y2 = rng.uniform(0.1, 2, 3), rng.uniform(0.1, 2, 3)
    eps = 0.07
    A = lambda y, e: sys.matrix_builder(y, e)
    I = np.eye(3)
    # affine in eps: A(y, 2e) - A(y, 0) == 2 (A(y, e) - A(y, 0))
    np.testing.assert_allclose(A(y1, 2 * eps) - I, 2 * (A(y1, eps) - I), atol=1e-14)
    # linear in y at fixed eps (M(y) is linear, so A - I is additive)
    np.testing.assert_allclose(A(y1 + y2, eps) - I, (A(y1, eps) - I) + (A(y2, eps) - I),
                               atol=1e-14)


def test_euler_bilinear_equations_hold():
    # the step must satisfy xnew_i - x_i = eps*(xnew_j x_k + x_j xnew_k)
    sys = polarize(euler_field())
    eps = 0.08
    for x in admissible_states(10, 3, seed=12):
        xn = hk_step(sys, x, eps)
        for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            res = xn[i] - x[i] - eps * (xn[j] * x[k] + x[j] * xn[k])
            assert abs(res) < 1e-13


def test_kov3_bilinear_equations_hold():
    sys = polarize(kovalevskaya_field(3))
    eps = 0.06
    for y in admissible_states(10, 3, seed=13):
        yn = hk_step(sys, y, eps)
        for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            res = yn[i] - y[i] - eps * (-2.0 * yn[i] * y[i]
                                        + yn[i] * y[j] + y[i] * yn[j]
                                        + yn[i] * y[k] + y[i] * yn[k])
            assert abs(res) < 1e-13


def test_euler_diagonal_value():
    sys = polarize(euler_field())
    np.testing.assert_allclose(hk_step(sys, [1.0, 1.0, 1.0], 0.1),
                               [1.25, 1.25, 1.25], rtol=1e-14)


def test_genkov_diagonal_value():
    sys = polarize(kovalevskaya_field(4))
    np.testing.assert_allclose(hk_step(sys, [1.0, 1.0, 1.0, 1.0], 0.1),
                               [5 / 3] * 4, rtol=1e-14)


def test_reversibility_round_trips():
    # these maps satisfy f^{-1}(., eps) = f(., -eps)
    sys = polarize(euler_field())
    x = np.array([1.0, 2.0, 3.0])
    back = hk_step(sys, hk_step(sys, x, 0.05), -0.05)
    np.testing.assert_allclose(back, x, rtol=1e-12)

    sys4 = polarize(kovalevskaya_field(4))
    y = np.array([1.0, 2.0, 3.0, 4.0])
    back = hk_step(sys4, hk_step(sys4, y, 0.02), -0.02)
    np.testing.assert_allclose(back, y, rtol=1e-12)


# The step matrix of the bilinearized generalized Kovalevskaya system:
# diagonal 1 - eps*(-3*y_i + s), off-diagonal -eps*y_i, the rank-one structure
# A = D - eps * y * ones^T with D_ii = 1 - eps*(-4*y_i + s).

def _build_A(N, y, eps):
    return polarize(kovalevskaya_field(N)).matrix_builder(np.asarray(y), eps)


def _rank_one_A(y, eps):
    D = np.diag(1.0 - eps * (-4.0 * y + y.sum()))
    return D - eps * np.outer(y, np.ones(len(y)))


def test_build_A_examples():
    np.testing.assert_array_equal(_build_A(3, [1.0, 2.0, 3.0], 0.0), np.eye(3))
    A = _build_A(3, [1.0, 1.0, 1.0], 0.1)
    expected = np.array([[1.0, -0.1, -0.1], [-0.1, 1.0, -0.1], [-0.1, -0.1, 1.0]])
    np.testing.assert_allclose(A, expected, atol=1e-15)


def test_build_A_matches_polarize():
    rng = np.random.default_rng(21)
    for N in (3, 4, 6):
        y = rng.uniform(0.1, 2.0, N)
        eps = rng.uniform(0.01, 0.2)
        np.testing.assert_allclose(_build_A(N, y, eps), _rank_one_A(y, eps),
                                   atol=1e-14)


def test_build_A_rank_one_structure():
    rng = np.random.default_rng(22)
    N = 5
    y = rng.uniform(0.1, 2.0, N)
    eps = 0.07
    np.testing.assert_allclose(_build_A(N, y, eps), _rank_one_A(y, eps),
                               atol=1e-14)


def test_engine_matches_euler_closed_form():
    from kovtop.maps import euler_hk
    sys = polarize(euler_field())
    m = euler_hk()
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = rng.uniform(0.1, 2.0, 3)
        eps = rng.uniform(0.005, 0.1)
        np.testing.assert_allclose(hk_step(sys, x, eps), m.step(x, eps),
                                   atol=1e-13)


def test_consistency_first_order_in_eps():
    # (step(y, eps) - y)/(2 eps) - f(y) should shrink linearly with eps
    field = kovalevskaya_field(3)
    sys = polarize(field)
    y = np.array([0.4, 0.9, 1.3])
    f = quadratic_flow(field)(y)

    def residual(eps):
        return np.max(np.abs((hk_step(sys, y, eps) - y) / (2 * eps) - f))

    r1, r2 = residual(1e-3), residual(5e-4)
    assert 1.7 < r1 / r2 < 2.3


def test_one_step_local_order_three():
    # as a step of size 2*eps the map is second order: local error O(eps^3)
    field = euler_field()
    sys = polarize(field)
    flow = euler_top3()
    y = np.array([0.3, 0.4, 0.5])

    def err(eps):
        ref = integrate_reference(flow, y, 2 * eps, 2 * eps / 64).states[-1]
        return np.max(np.abs(hk_step(sys, y, eps) - ref))

    eps_list = [0.02, 0.01, 0.005]
    errs = [err(e) for e in eps_list]
    slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    assert 2.7 < slope < 3.3


@pytest.mark.parametrize("make_field,dim", [(euler_field, 3),
                                            (lambda: kovalevskaya_field(4), 4)])
def test_determinant_identity(make_field, dim):
    # det(d ynew/d y) = det A(ynew, -eps) / det A(y, eps)
    sys = polarize(make_field())
    rng = np.random.default_rng(31)
    for _ in range(5):
        y = rng.uniform(0.2, 1.5, dim)
        eps = rng.uniform(0.01, 0.08)
        yn = hk_step(sys, y, eps)
        J = np.linalg.det(central_jacobian(lambda z: hk_step(sys, z, eps), y))
        ratio = np.linalg.det(sys.matrix_builder(yn, -eps)) \
            / np.linalg.det(sys.matrix_builder(y, eps))
        assert abs(J - ratio) / abs(J) < 1e-6


def test_singular_step_detected():
    # on the diagonal (1,1,1) the euler denominator 1 - 3 eps^2 - 2 eps^3
    # vanishes exactly at eps = 0.5
    sys = polarize(euler_field())
    with pytest.raises(SingularStepError):
        hk_step(sys, [1.0, 1.0, 1.0], 0.5)
