"""Generic bilinear (Hirota-Kimura / Kahan type) discretization engine.

`polarize` turns any quadratic field into the linear-in-the-new-state system
A(y, eps) * y_new = y obtained by replacing each monomial y_j*y_k with
y_j*ynew_k + ynew_j*y_k (and y_j^2 with 2*y_j*ynew_j).  On the diagonal the
bilinear form doubles the field, so one application advances time 2*eps.

The dense partial-pivoting solve here is intentionally independent of the
closed-form kernels in `maps`; the two routes cross-check each other.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import QuadraticField, as_state
from .errors import SingularStepError

#: regularity (|det A| over the Hadamard row bound, or a `maps` step's) below
#: this counts as singular.
SINGULAR_RTOL = 1e-14


@dataclass(frozen=True)
class BilinearStepSystem:
    """Holds A(y, eps) with A(y, 0) = I, affine in both eps and y."""

    dim: int
    matrix_builder: Callable[[np.ndarray, float], np.ndarray]


def polarize(field: QuadraticField) -> BilinearStepSystem:
    """Bilinearize a quadratic field into its implicit step system."""
    dim = field.dim

    def build(y: np.ndarray, eps: float) -> np.ndarray:
        M = np.zeros((dim, dim))
        for i, j, k, a in field.terms:
            if j == k:
                M[i, j] += 2.0 * a * y[j]
            else:
                M[i, j] += a * y[k]
                M[i, k] += a * y[j]
        return np.eye(dim) - eps * M

    return BilinearStepSystem(dim=dim, matrix_builder=build)


def _check_regular(A: np.ndarray, y, eps) -> None:
    with np.errstate(all="ignore"):  # an overflow is judged by its value
        det = np.linalg.det(A)
        hadamard = float(np.prod(np.linalg.norm(A, axis=1)))
    if abs(det) <= SINGULAR_RTOL * hadamard:
        raise SingularStepError(
            f"step matrix numerically singular (det = {det:.3e})", state=y, eps=eps)


def hk_step(sys: BilinearStepSystem, y, eps: float) -> np.ndarray:
    """One bilinear step: solve A(y, eps) * y_new = y."""
    y = as_state(y, sys.dim)
    A = sys.matrix_builder(y, eps)
    _check_regular(A, y, eps)
    return np.linalg.solve(A, y)
