import numpy as np
import pytest

from conftest import admissible_states
from kovtop.changevar import (conjugacy_check, gen_cv, jacobian_gen_cv,
                              linear_cv, nonlinear_cv3)
from kovtop.errors import DimensionError, DomainError
from kovtop.flows import (euler_top3, generalized_euler,
                          generalized_kovalevskaya, kovalevskaya3)
from kovtop.maps import cosine_law, euler_hk, gen_hk, kov_pullback, kov_sqrt
from kovtop.numdiff import central_jacobian


def test_linear_examples():
    cv = linear_cv()
    np.testing.assert_allclose(cv.forward([1.0, 2.0, 3.0]), [2.5, 2.0, 1.5])
    x = np.array([0.7, -1.2, 3.4])
    np.testing.assert_allclose(cv.backward(cv.forward(x)), x, atol=1e-15)
    np.testing.assert_allclose(cv.forward([0.4, 0.4, 0.4]), [0.4, 0.4, 0.4])


def test_nonlinear_examples():
    cv = nonlinear_cv3()
    np.testing.assert_allclose(cv.forward([1.0, 2.0, 3.0]), [6.0, 1.5, 2 / 3],
                               rtol=1e-15)
    np.testing.assert_allclose(cv.backward([6.0, 1.5, 2 / 3]), [1.0, 2.0, 3.0],
                               rtol=1e-14)
    np.testing.assert_allclose(cv.forward([0.9, 0.9, 0.9]), [0.9, 0.9, 0.9])
    with pytest.raises(DomainError):
        cv.forward([1.0, 0.0, 2.0])
    with pytest.raises(DomainError):
        cv.backward([1.0, -2.0, 3.0])


def test_gen_cv_specializes_to_nonlinear():
    g, nl = gen_cv(3), nonlinear_cv3()
    for x in admissible_states(10, 3, seed=51):
        np.testing.assert_allclose(g.forward(x), nl.forward(x), rtol=1e-13)
        np.testing.assert_allclose(g.backward(x), nl.backward(x), rtol=1e-13)


def test_gen_cv_examples():
    g = gen_cv(4)
    np.testing.assert_allclose(g.forward([1.0, 2.0, 3.0, 4.0]),
                               [24.0, 6.0, 8 / 3, 1.5], rtol=1e-14)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(g.backward(g.forward(x)), x, rtol=1e-12)


def test_jacobian_gen_cv_values():
    assert jacobian_gen_cv(3, [0.4, 1.7, 0.9]) == 1.0
    assert abs(jacobian_gen_cv(4, [1.0, 2.0, 3.0, 4.0]) - 24.0) < 1e-12
    assert abs(jacobian_gen_cv(5, [1.0, 1.0, 1.0, 1.0, 2.0]) - 4.0) < 1e-12


def test_jacobian_gen_cv_matches_finite_differences():
    # full determinant = (N-2)(-2)^(N-1) * (prod x)^(N-3): the constant comes
    # from det(ones - 2I) after factoring diag(y) and diag(1/x)
    rng = np.random.default_rng(52)
    for N in (3, 4, 5):
        g = gen_cv(N)
        x = rng.uniform(0.3, 1.5, N)
        fd = np.linalg.det(central_jacobian(g.forward, x))
        exact = (N - 2) * (-2.0) ** (N - 1) * jacobian_gen_cv(N, x)
        assert abs(fd - exact) / abs(exact) < 1e-5


def test_map_conjugacies():
    x = np.array([0.3, 0.4, 0.5])
    assert conjugacy_check(linear_cv(), euler_hk(), gen_hk(3), x, 0.05) < 1e-12
    assert conjugacy_check(nonlinear_cv3(), euler_hk(), kov_pullback(), x, 0.05) < 1e-12
    assert conjugacy_check(nonlinear_cv3(), cosine_law(), kov_sqrt(), x, 0.05) < 1e-12


def test_flow_conjugacies():
    x = np.array([0.3, 0.4, 0.5])
    assert conjugacy_check(linear_cv(), euler_top3(), kovalevskaya3(), x, 0.0) < 1e-10
    # pushforward of the Euler top under y_i = x_j x_k / x_i is the
    # Kovalevskaya flow, pointwise at t = 0
    assert conjugacy_check(nonlinear_cv3(), euler_top3(), kovalevskaya3(), x, 0.0) < 1e-10


@pytest.mark.parametrize("N", [3, 4, 5])
def test_gen_cv_flow_conjugacy(N):
    rng = np.random.default_rng(53)
    g = gen_cv(N)
    up = generalized_euler(N)
    down = generalized_kovalevskaya(N, 2.0)
    for _ in range(3):
        x = rng.uniform(0.3, 1.2, N)
        assert conjugacy_check(g, up, down, x, 0.0) < 1e-8


def _sign_mixed_points(n, N, seed):
    # x_i = +-U(0.3, 1.2): no zero coordinate, each sign pattern possible
    rng = np.random.default_rng(seed)
    return [rng.choice([-1.0, 1.0], N) * rng.uniform(0.3, 1.2, N)
            for _ in range(n)]


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_gen_cv_flow_conjugacy_off_the_positive_orthant(N):
    # y_i = prod_{j != i} x_j / x_i carries gen-euler to gen-kov (alpha 2)
    # wherever no x_i is 0
    g = gen_cv(N)
    up = generalized_euler(N)
    down = generalized_kovalevskaya(N, 2.0)
    points = _sign_mixed_points(20, N, seed=0)
    assert any((x < 0).any() for x in points)
    for x in points:
        assert conjugacy_check(g, up, down, x, 0.0) < 1e-8


def test_nonlinear_cv3_is_gen_cv3():
    nl, g = nonlinear_cv3(), gen_cv(3)
    positive = admissible_states(20, 3, seed=61)
    for x in positive + _sign_mixed_points(20, 3, seed=62):
        assert nl.forward(x).tobytes() == g.forward(x).tobytes()
    for y in positive:
        assert nl.backward(y).tobytes() == g.backward(y).tobytes()
    for cv in (nl, g):
        with pytest.raises(DomainError) as exc:
            cv.forward([1.0, 0.0, -2.0])
        assert str(exc.value) == "forward map needs all x_i nonzero"


def test_integral_transport_linear():
    # K_jk(y(x)) = (x_k^2 - x_j^2)/4 for (i, j, k) cyclic
    cv = linear_cv()
    for x in admissible_states(10, 3, seed=54):
        y = cv.forward(x)
        for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            K = y[i] * (y[j] - y[k])
            E = (x[k] ** 2 - x[j] ** 2) / 4.0
            assert abs(K - E) < 1e-12 * (1 + abs(E))


def test_integral_transport_nonlinear():
    # K_jk(y(x)) = x_k^2 - x_j^2 on the positive orthant
    cv = nonlinear_cv3()
    for x in admissible_states(10, 3, seed=55):
        y = cv.forward(x)
        for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            K = y[i] * (y[j] - y[k])
            E = x[k] ** 2 - x[j] ** 2
            assert abs(K - E) < 1e-12 * (1 + abs(E))


@pytest.mark.parametrize("call, error, message", [
    (lambda: gen_cv(2), DimensionError, "gen_cv needs N >= 3"),
    (lambda: gen_cv(4).forward([1.0, 0.0, 1.0, 1.0]), DomainError,
     "forward map needs all x_i nonzero"),
    (lambda: gen_cv(4).backward([1.0, 1.0, 0.0, 1.0]), DomainError,
     "backward map needs the positive orthant"),
    (lambda: jacobian_gen_cv(4, [1.0, 0.0, 1.0, 1.0]), DomainError,
     "Jacobian formula holds on the positive orthant"),
    (lambda: conjugacy_check(nonlinear_cv3(), euler_hk(), euler_top3(),
                             [0.2, 0.3, 0.4], 0.01), TypeError,
     "upstream and downstream must both be maps or both flows"),
], ids=["gen-cv-n2", "forward-zero", "backward-orthant",
        "jacobian-orthant", "map-and-flow"])
def test_changevar_rejects_what_it_cannot_map(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
