import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference_writers import reference_csv, reference_json
from kovtop.core import (MapStepScale, QuadraticField, TrajectoryRecord,
                         as_state, fmt17, json_number, painleve_condition)
from kovtop.errors import DimensionError, DomainError, ParameterError
from kovtop.flows import euler_field, kovalevskaya_field, quadratic_flow
from kovtop.kernels import esp_all

finite_coords = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


def test_as_state_rejects_small_and_nonfinite():
    with pytest.raises(DimensionError):
        as_state([1.0, 2.0])
    with pytest.raises(DomainError):
        as_state([1.0, np.nan, 2.0])
    with pytest.raises(DimensionError):
        as_state([1.0, 2.0, 3.0], dim=4)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_as_state_rejects_every_nonfinite_position_and_2d_input(n):
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(n):
            y = [0.5] * n
            y[i] = bad
            with pytest.raises(DomainError, match="must be finite"):
                as_state(y)
            with pytest.raises(DomainError):
                as_state(np.array(y), dim=n)
    with pytest.raises(DimensionError, match="must be 1-D"):
        as_state(np.ones((1, n)))


def test_as_state_accepts_extreme_finite_values_as_a_fresh_array():
    y = np.array([1.7976931348623157e308, -5e-324, 0.0, -1.7976931348623157e308])
    out = as_state(y, dim=4)
    assert out.dtype == np.float64 and out.tobytes() == y.tobytes()
    assert not np.shares_memory(out, y)
    assert as_state([-5e-324, 1, 2]).tolist() == [-5e-324, 1.0, 2.0]


# A quadratic field is evaluated as its flow's right-hand side,
# `quadratic_flow(field)(y)`, a float64 array.

def test_field_vanishes_at_origin():
    f = quadratic_flow(kovalevskaya_field(3))
    assert np.array_equal(f([0.0, 0.0, 0.0]), np.zeros(3))


def test_kovalevskaya_field_on_diagonal():
    f = quadratic_flow(kovalevskaya_field(3))
    np.testing.assert_allclose(f([1.0, 1.0, 1.0]), [1.0, 1.0, 1.0])


def test_euler_field_example():
    np.testing.assert_allclose(quadratic_flow(euler_field())([1.0, 2.0, 3.0]),
                               [6.0, 3.0, 2.0])


def test_field_dimension_mismatch():
    with pytest.raises(DimensionError):
        quadratic_flow(euler_field())([1.0, 2.0, 3.0, 4.0])


def test_quadratic_field_rejects_lower_triangular():
    c = np.zeros((3, 3, 3))
    c[0, 2, 1] = 1.0  # j > k violates the convention
    with pytest.raises(ValueError):
        QuadraticField(3, c)


def test_field_terms_list_the_nonzero_coefficients_of_a_read_only_copy():
    c = np.zeros((3, 3, 3))
    c[2, 0, 1], c[0, 1, 2], c[0, 0, 0], c[1, 1, 1] = 1.5, -2.0, -0.0, np.nan
    f = QuadraticField(3, c)
    assert f.terms[0] == (0, 1, 2, -2.0)
    assert f.terms[2] == (2, 0, 1, 1.5) and len(f.terms) == 3
    assert f.terms[1][:3] == (1, 1, 1) and f.terms[1][3] != f.terms[1][3]
    assert all([type(v) for v in t] == [int, int, int, float] for t in f.terms)
    # the terms are derived once, so the tensor they come from cannot change
    c[0, 1, 2] = 7.0
    assert f.coeffs[0, 1, 2] == -2.0
    with pytest.raises(ValueError):
        f.coeffs[0, 1, 2] = 7.0


def test_from_terms_sorts_indices():
    f = QuadraticField.from_terms(3, {(0, 2, 1): 2.0})
    assert f.coeffs[0, 1, 2] == 2.0
    np.testing.assert_allclose(quadratic_flow(f)([1.0, 3.0, 5.0]),
                               [30.0, 0.0, 0.0])


@settings(deadline=None, max_examples=50)
@given(arrays(float, 3, elements=finite_coords), st.floats(0.1, 3.0))
def test_field_homogeneous_degree_two(y, lam):
    f = quadratic_flow(kovalevskaya_field(3))
    lhs = f(lam * y)
    rhs = lam * lam * f(y)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_painleve_kovalevskaya_matrix():
    a = [[-1, 1, 1], [1, -1, 1], [1, 1, -1]]
    assert painleve_condition(a)


def test_painleve_broken_matrix():
    a = [[-1, 2, 1], [1, -1, 1], [1, 1, -1]]
    assert not painleve_condition(a)


def test_painleve_zero_matrix():
    assert painleve_condition(np.zeros((3, 3)))


@settings(deadline=None, max_examples=50)
@given(arrays(float, (3, 3), elements=finite_coords))
def test_painleve_cyclic_relabeling(a):
    perm = [1, 2, 0]
    b = a[np.ix_(perm, perm)]
    assert painleve_condition(a) == painleve_condition(b)


# e_k(y), the degree-k elementary symmetric polynomial, is `esp_all(y)[k]`.

def test_elementary_symmetric_examples():
    e = esp_all([1.0, 2.0, 3.0, 4.0])
    assert e[2] == 35.0
    assert e[0] == 1.0
    assert e[4] == 24.0


def test_elementary_symmetric_out_of_range():
    with pytest.raises(IndexError):
        esp_all([1.0, 2.0, 3.0])[4]


def test_elementary_symmetric_matches_bruteforce():
    from itertools import combinations
    rng = np.random.default_rng(5)
    y = rng.uniform(-1, 1, 6)
    e = esp_all(y.tolist())
    for k in range(7):
        brute = sum(np.prod([y[i] for i in c]) for c in combinations(range(6), k))
        assert abs(e[k] - brute) < 1e-12 * (1 + abs(brute))


@settings(deadline=None, max_examples=50)
@given(arrays(float, 4, elements=finite_coords), st.floats(-0.5, 0.5))
def test_generating_identity(y, eps):
    # prod(1 + eps*y_j) = sum_k eps^k e_k(y)
    lhs = np.prod(1.0 + eps * y)
    rhs = sum(eps ** k * e_k for k, e_k in enumerate(esp_all(y.tolist())))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))


def test_step_scale_factors():
    assert MapStepScale.EPS.factor == 1.0
    assert MapStepScale.TWO_EPS.factor == 2.0


def test_fmt17_round_trips():
    for x in (1 / 3, 0.1, 2e-15, 123456.789):
        assert float(fmt17(x)) == x


_CELLS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5,
          1.7976931348623157e308, -2.2250738585072014e-308, 1 / 3, 0.1]


def _records():
    rng = np.random.default_rng(11)

    def cells(shape):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        bits = rng.integers(0, 2**63, shape, dtype=np.int64).view(np.float64)
        a = np.where(rng.random(shape) < 0.5, bits, a)
        special = rng.random(shape) < 0.2
        a[special] = rng.choice(_CELLS, special.sum())
        return a

    names = ["H12", "100%", 'say "K"', "\u00e9nergie", "%s%%r", "h12"]
    out = []
    for rows, n, m in [(1, 3, 0), (1, 4, 2), (5, 3, 0), (7, 4, 5), (3, 3, 6)]:
        out.append(TrajectoryRecord("kov3", cells(rows), cells((rows, n))))
        out.append(TrajectoryRecord(
            'gen-kov "%d" \u00fc', cells(rows), cells((rows, n)), names[:m],
            cells((rows, m)), status="blowup"))
    # every special value in one column
    out.append(TrajectoryRecord("euler3", np.array(_CELLS),
                                np.tile(np.array(_CELLS)[:, None], 3), ["E", "K"],
                                np.array([_CELLS, _CELLS[::-1]]).T))
    # no rows, with and without invariant columns
    out.append(TrajectoryRecord("kov3", np.zeros(0), np.zeros((0, 3))))
    out.append(TrajectoryRecord("gen-kov", np.zeros(0), np.zeros((0, 4)),
                                ["H", "K"], np.zeros((0, 2))))
    # conserved columns: one value in most rows, mixed with 0.0, -0.0 and
    # NaNs of two payloads, each of which must keep its own spelling
    nans = np.array([0x7FF8000000000001, -0x8000000000000], np.int64).view(float)
    col = np.full(12, 1 / 3)
    col[[2, 5, 6, 9, 10]] = [0.0, -0.0, nans[0], nans[1], 0.0]
    out.append(TrajectoryRecord("euler3", cells(12), cells((12, 3)),
                                ["E", "K", "H12"],
                                np.column_stack((col, col[::-1], -col))))
    # invariants beside non-finite time and state cells
    t = np.array([0.0, np.inf, np.nan, -np.inf])
    y = np.array([[np.nan, 1.0, -0.0], [np.inf, -np.inf, 2.0],
                  [0.1, 0.2, 0.3], [np.nan, np.nan, np.nan]])
    out.append(TrajectoryRecord("kov3", t, y, ["H", "%r"],
                                np.column_stack((np.full(4, 0.1),
                                                 [np.nan, 2.0, 2.0, np.inf]))))
    return out


@pytest.mark.parametrize("rec", _records())
def test_trajectory_record_spells_cells_as_fmt17_and_json(rec):
    assert rec.to_csv() == reference_csv(rec)
    assert rec.to_json() == reference_json(rec)


@settings(max_examples=300)
@given(st.floats() | st.integers(-10**400, 10**400) | st.none())
def test_json_number_is_json_dumps(x):
    # floats of every kind, ints past the floats' range, None, and numpy's
    # float64, which json spells by its float's repr
    assert json_number(x) == json.dumps(x)
    if isinstance(x, float):
        assert json_number(np.float64(x)) == json.dumps(x)


def test_trajectory_record_rejects_duplicate_invariant_names():
    t, y = np.zeros(2), np.zeros((2, 3))
    with pytest.raises(ParameterError,
                       match="duplicate invariant names: H12, E$"):
        TrajectoryRecord("kov3", t, y, ["H12", "E", "K", "H12", "E"],
                         np.zeros((2, 5)))
    rec = TrajectoryRecord("kov3", t, y, ["H12", "h12"], np.zeros((2, 2)))
    assert rec.to_csv().splitlines()[0] == "step,t,y_1,y_2,y_3,H12,h12"
    assert list(json.loads(rec.to_json())["rows"][0]["invariants"]) == \
        ["H12", "h12"]


@pytest.mark.parametrize("names, invariants, times, states", [
    (["a", "b"], np.zeros((2, 1)), np.zeros(2), np.zeros((2, 3))),
    (["a"], np.zeros((2, 2)), np.zeros(2), np.zeros((2, 3))),
    (["a"], None, np.zeros(2), np.zeros((2, 3))),
    ([], None, np.zeros(3), np.zeros((2, 3))),
    (["a"], np.zeros((3, 1)), np.zeros(2), np.zeros((2, 3))),
    (["a"], np.zeros(2), np.zeros(2), np.zeros((2, 3))),
    ([], None, np.zeros(2), np.zeros(2)),
    ([], None, np.zeros((2, 1)), np.zeros((2, 3))),
], ids=["name-without-column", "column-without-name", "names-without-invariants",
        "time-without-state", "invariant-without-state", "1-d-invariants",
        "1-d-states", "2-d-times"])
def test_trajectory_record_rejects_mismatched_shapes(names, invariants, times,
                                                     states):
    # unchecked, each would write a ragged CSV, a JSON missing a name, or
    # fail inside numpy
    with pytest.raises(ParameterError, match="invariant|row"):
        TrajectoryRecord("kov3", times, states, names, invariants)


@pytest.mark.parametrize("call, message", [
    (lambda: QuadraticField(2, np.zeros((2, 2, 2))),
     "quadratic fields need dim >= 3"),
    (lambda: QuadraticField(3, np.zeros((3, 3))),
     "coefficient tensor must be shape (3, 3, 3), got (3, 3)"),
    (lambda: painleve_condition(np.eye(2)),
     "painleve_condition expects a 3x3 matrix"),
], ids=["field-dim-2", "field-shape", "painleve-2x2"])
def test_fields_and_matrices_of_the_wrong_shape_raise(call, message):
    with pytest.raises(DimensionError) as exc:
        call()
    assert str(exc.value) == message
