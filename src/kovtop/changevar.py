"""Invertible changes of variables linking the Euler-top and Kovalevskaya
families, with exact Jacobians and conjugacy testing.

All root-taking fixes the positive branch and restricts to the positive
orthant; sign-pattern extensions of the inverses are rejected rather than
guessed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import as_state
from .errors import DimensionError, DomainError
from .flows import FlowSpec
from .maps import DiscreteMap
from .numdiff import central_jacobian


@dataclass(frozen=True)
class ChangeOfVariables:
    name: str
    dim: int
    forward: Callable[[np.ndarray], np.ndarray]
    backward: Callable[[np.ndarray], np.ndarray]


def linear_cv() -> ChangeOfVariables:
    """y_i = (x_j + x_k)/2 with inverse x_i = -y_i + y_j + y_k; globally
    defined, exact linear pair."""

    def fwd(x):
        x = as_state(x, 3)
        s = x.sum()
        return 0.5 * (s - x)

    def bwd(y):
        y = as_state(y, 3)
        s = y.sum()
        return s - 2.0 * y

    return ChangeOfVariables("linear", 3, fwd, bwd)


def nonlinear_cv3() -> ChangeOfVariables:
    """y_i = x_j x_k / x_i with inverse x_i = sqrt(y_j y_k) (principal
    roots): gen_cv(3) under the name "nonlinear3"."""
    return replace(gen_cv(3), name="nonlinear3")


def gen_cv(N: int) -> ChangeOfVariables:
    """y_i = (prod_{j != i} x_j)/x_i with inverse
    x_i = sqrt((prod y)^(1/(N-2)) / y_i), positive roots.  The forward map
    takes every x with no zero coordinate, where it carries gen-euler to
    gen-kov at alpha = 2; the backward map takes the positive orthant.
    At N = 3 this is nonlinear_cv3."""
    if N < 3:
        raise DimensionError("gen_cv needs N >= 3")

    def fwd(x):
        x = as_state(x, N)
        if np.any(x == 0.0):
            raise DomainError("forward map needs all x_i nonzero")
        p = float(np.prod(x))
        return p / (x * x)

    def bwd(y):
        y = as_state(y, N)
        if np.any(y <= 0.0):
            raise DomainError("backward map needs the positive orthant")
        p = float(np.prod(y))
        return np.sqrt(p ** (1.0 / (N - 2.0)) / y)

    return ChangeOfVariables(f"gen(N={N})", N, fwd, bwd)


def jacobian_gen_cv(N: int, x) -> float:
    """State-dependent part (prod x)^(N-3) of det(dy/dx) for gen_cv.forward.

    The full determinant carries the extra constant (N-2) * (-2)^(N-1)
    (from det(ones - 2I) after factoring diag(y) and diag(1/x)); volume-form
    statements only use the density up to a constant multiple, so this
    function returns the density part alone.  Positive orthant only.
    """
    x = as_state(x, N)
    if np.any(x <= 0.0):
        raise DomainError("Jacobian formula holds on the positive orthant")
    return float(np.prod(x) ** (N - 3))


def conjugacy_check(cv: ChangeOfVariables, upstream, downstream, point,
                    eps_or_t: float) -> float:
    """Max-norm conjugacy residual through cv.forward.

    For maps: |cv(upstream.step(x, eps)) - downstream.step(cv(x), eps)|.
    For flows: chain-rule pushforward |J_cv(x) * upstream.rhs(x) -
    downstream.rhs(cv(x))| with a finite-difference Jacobian.
    """
    x = as_state(point, cv.dim)
    if isinstance(upstream, DiscreteMap) and isinstance(downstream, DiscreteMap):
        eps = eps_or_t
        lhs = cv.forward(upstream.step(x, eps))
        rhs = downstream.step(cv.forward(x), eps)
        return float(np.max(np.abs(lhs - rhs)))
    if isinstance(upstream, FlowSpec) and isinstance(downstream, FlowSpec):
        J = central_jacobian(cv.forward, x)
        lhs = J @ upstream(x)
        rhs = downstream(cv.forward(x))
        return float(np.max(np.abs(lhs - rhs)))
    raise TypeError("upstream and downstream must both be maps or both flows")
