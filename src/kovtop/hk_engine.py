"""Generic bilinear (Hirota-Kimura / Kahan type) discretization engine.

`polarize` turns any quadratic field into the linear-in-the-new-state system
A(y, eps) * y_new = y obtained by replacing each monomial y_j*y_k with
y_j*ynew_k + ynew_j*y_k (and y_j^2 with 2*y_j*ynew_j).  On the diagonal the
bilinear form doubles the field, so one application advances time 2*eps.

The step matrix builder, the regularity test and the solve take a (P, N)
stack of states with one eps per row as they take one state: `hk_solve`
steps a whole stack in one call into one array, its failed rows apart, and
`hk_step` is its one-row case.  Each row gets the bits it gets alone.

The dense partial-pivoting solve here is intentionally independent of the
closed-form kernels in `maps`; the two routes cross-check each other.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import QuadraticField, as_state
from .errors import DimensionError, DomainError, SingularStepError

#: regularity (|det A| over the Hadamard row bound, or a `maps` step's) below
#: this counts as singular.
SINGULAR_RTOL = 1e-14


@dataclass(frozen=True)
class BilinearStepSystem:
    """Holds A(y, eps) with A(y, 0) = I, affine in both eps and y; the
    builder takes a state or a (P, N) stack with eps one number or one per
    row."""

    dim: int
    matrix_builder: Callable[[np.ndarray, float], np.ndarray]


def polarize(field: QuadraticField) -> BilinearStepSystem:
    """Bilinearize a quadratic field into its implicit step system."""
    dim = field.dim
    # M[i, j] gains coef * y[k] from each term that touches entry (i, j), in
    # term order.  Round r adds every entry's r-th gain at once, so an entry
    # sums its gains in term order and no round names an entry twice.
    rounds: list[list[tuple[int, float, int]]] = []
    taken: dict[int, int] = {}      # gains placed so far, per entry
    for i, j, k, a in field.terms:
        for entry, coef, source in (((i * dim + j, 2.0 * a, j),) if j == k else
                                    ((i * dim + j, a, k), (i * dim + k, a, j))):
            r = taken.get(entry, 0)
            taken[entry] = r + 1
            if r == len(rounds):
                rounds.append([])
            rounds[r].append((entry, coef, source))
    rounds = [(np.array(entries), np.array(coefs)[:, None], np.array(sources))
              for entries, coefs, sources in (zip(*gains) for gains in rounds)]
    eye = np.eye(dim).reshape(-1, 1)

    def build(y: np.ndarray, eps) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        # one row per entry of M and per coordinate, one column per state
        cols = y.reshape(-1, dim).T
        M = np.zeros((dim * dim, cols.shape[1]))
        with np.errstate(all="ignore"):  # an overflow is judged by its value
            for entries, coefs, sources in rounds:
                M[entries] += coefs * cols[sources]
            A = eye - M * np.asarray(eps, dtype=float).reshape(-1)
        return np.ascontiguousarray(A.T).reshape(y.shape[:-1] + (dim, dim))

    return BilinearStepSystem(dim=dim, matrix_builder=build)


def _steps(A, Y, eps):
    # a (P, N, N) stack of step matrices and its (P, N) states, eps one
    # number or one per row: the (P, N) solutions of A * y_new = y, NaN on a
    # failed row, and the failed rows apart, each with the error `hk_step`
    # raises for that row alone
    with np.errstate(all="ignore"):  # an overflow is judged by its value
        det = np.linalg.det(A)
        singular = np.abs(det) <= SINGULAR_RTOL * np.prod(
            np.linalg.norm(A, axis=-1), axis=-1)
    per_row = np.ndim(eps) != 0     # once: eps may be as long as the stack
    failed = {p: SingularStepError(
                  f"step matrix numerically singular (det = {det[p]:.3e})",
                  state=Y[p], eps=eps[p] if per_row else eps)
              for p in np.flatnonzero(singular).tolist()}
    X = np.full(Y.shape, np.nan)
    try:
        X[~singular] = _solve(A[~singular], Y[~singular])
    except np.linalg.LinAlgError:
        # an exactly singular matrix whose bound is NaN fails the whole
        # stack; alone, only its own step raises
        for p in np.flatnonzero(~singular).tolist():
            try:
                X[p] = _solve(A[p], Y[p])
            except np.linalg.LinAlgError as exc:
                failed[p] = exc
    return X, failed


def _solve(A, Y):
    return np.linalg.solve(A, Y[..., None])[..., 0]


def hk_solve(sys: BilinearStepSystem, Y, eps) -> tuple[np.ndarray, dict]:
    """Bilinear steps of a (P, N) stack of states in one build, regularity
    test and solve, with eps one number or one per row (the builder must
    take stacks, as `polarize`'s does).  Returns the (P, N) float64
    solutions of A(y, eps) * y_new = y, each row with the bits `hk_step`
    gives it and NaN on a failed row, and the failed rows apart: a dict from
    row index to the error `hk_step` raises for that row alone.  Raises
    DimensionError for a stack that is not (P, N) and DomainError for a
    non-finite coordinate, as `hk_step` does for one state."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != sys.dim:
        raise DimensionError(f"expected a (P, {sys.dim}) stack of states, "
                             f"got shape {Y.shape}")
    if not np.isfinite(Y).all():
        raise DomainError("state coordinates must be finite")
    return _steps(sys.matrix_builder(Y, eps), Y, eps)


def hk_step(sys: BilinearStepSystem, y, eps: float) -> np.ndarray:
    """One bilinear step: solve A(y, eps) * y_new = y.  The one-row case of
    `hk_solve`, the builder called with the one state: returns its row, or
    raises its row's error."""
    y = as_state(y, sys.dim)
    X, failed = _steps(sys.matrix_builder(y, eps)[None], y[None], eps)
    if failed:
        raise failed[0]
    return X[0]
