"""Closed-form discrete maps with declared step scales, plus the scalar
machinery (R, D, d_i, S) entering their structural identities.

Every map here is implemented independently of the generic linear-solve
engine in `hk_engine`; agreement between the two routes is part of the test
suite, not an assumption.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import MapStepScale, as_state
from .errors import DimensionError, DomainError, SingularStepError
from .hk_engine import SINGULAR_RTOL


@dataclass(frozen=True)
class OrbitGuards:
    """Early-stop rules for orbit iteration; every orbit also stops when a
    coordinate exceeds `kernels.BLOWUP_CAP`.

    strain: stop when a step's regularity factor (denominator magnitude,
        normalised to 1 at eps = 0) drops below this.
    resolution: stop when |eps| * max|y_i| exceeds this.
    coincidence: stop when the state comes within this relative distance of a
        coincidence variety (y_i = y_j, or |y_i| = |y_j| for maps whose
        invariants are even).
    """

    strain: float = 0.0
    resolution: float = math.inf
    coincidence: float = 0.0


RAW_GUARDS = OrbitGuards()


@dataclass(frozen=True)
class DiscreteMap:
    """A parametrized step (state, eps) -> state with a declared time scale.

    `kernel_code` selects the step kernel in `kernels` that `checked_step`
    and `orbit` run.  `checked_step` is the list-level step with its domain
    and singularity checks; `step` validates a state and wraps it.
    """

    name: str
    dim: int
    scale: MapStepScale
    kernel_code: int
    even_invariants: bool = False

    def step_time(self, eps: float) -> float:
        """Continuous time advanced by one application."""
        return self.scale.factor * eps

    def step(self, y, eps: float) -> np.ndarray:
        y = as_state(y, self.dim)
        return np.array(self.checked_step(y.tolist(), float(eps)))

    def checked_step(self, y: list, eps: float) -> list:
        """One step of the list y of `dim` finite floats at the float eps.

        Raises DomainError when y is outside the map's real domain and
        SingularStepError when a denominator vanishes or the result is not
        finite."""
        if self.kernel_code == kernels.COSINE:
            for j, v in enumerate(y):
                if eps * eps * v * v >= 1.0:
                    raise DomainError(
                        f"cosine-law map needs eps^2*x_j^2 < 1; violated at "
                        f"index {j + 1}")
        out, reg = kernels.map_step(self.kernel_code, y, eps)
        if reg < SINGULAR_RTOL or not all(map(math.isfinite, out)):
            raise SingularStepError(
                f"{self.name}: {self._singular_detail(y, eps)}",
                state=np.array(y), eps=eps)
        return out

    def orbit(self, y0, eps: float, steps: int,
              guards: OrbitGuards = RAW_GUARDS) -> tuple[np.ndarray, int]:
        """Iterate `steps` times; returns (states, last_step) where states has
        one row per recorded state and last_step < steps means an early stop
        under the given guards."""
        y0 = as_state(y0, self.dim)
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        return kernels.map_orbit(
            self.kernel_code, y0.tolist(), float(eps), steps, guards.strain,
            guards.resolution, guards.coincidence, self.even_invariants)

    def _singular_detail(self, y, eps) -> str:
        if self.kernel_code == kernels.GEN_HK:
            d, S = d_factors(y, eps)
            i = int(np.argmin(np.abs(d)))
            # a vanishing d_i makes S non-finite (y_i/d_i is inf or NaN)
            if abs(d[i]) <= abs(S) or not math.isfinite(S):
                return f"denominator d_{i + 1} vanished"
            return "denominator S vanished"
        return "step denominator vanished"


def euler_hk() -> DiscreteMap:
    """Explicit bilinearized Euler top (one application advances 2*eps)."""
    return DiscreteMap("euler-hk", 3, MapStepScale.TWO_EPS,
                       kernels.EULER_HK, even_invariants=True)


def cosine_law() -> DiscreteMap:
    """Spherical-cosine-law step; its second iterate is euler_hk.  Real only
    on eps^2 x_j^2 < 1, principal square roots.  The roots make it the one
    map whose kernel has no exact (Fraction) step."""
    return DiscreteMap("cosine", 3, MapStepScale.EPS,
                       kernels.COSINE, even_invariants=True)


def kov_sqrt() -> DiscreteMap:
    """Birational square-root map: its second iterate is kov_pullback."""
    return DiscreteMap("kov-sqrt", 3, MapStepScale.EPS, kernels.KOV_SQRT)


def kov_pullback() -> DiscreteMap:
    """Pull-back of euler_hk under y_i = x_j*x_k/x_i (advances 2*eps)."""
    return DiscreteMap("kov-pullback", 3, MapStepScale.TWO_EPS,
                       kernels.KOV_PULLBACK)


def gen_hk(N: int) -> DiscreteMap:
    """Explicit bilinearized generalized Kovalevskaya map
    ynew_i = y_i / (S * d_i), any N >= 3."""
    if N < 3:
        raise DimensionError("gen-hk needs N >= 3")
    return DiscreteMap("gen-hk", N, MapStepScale.TWO_EPS, kernels.GEN_HK)


def alt_map(N: int) -> DiscreteMap:
    """Alternative discretization ynew_i = [y_i/(1+eps*y_i)] / R_i; for N = 3
    it coincides with kov_sqrt."""
    if N < 3:
        raise DimensionError("alt-map needs N >= 3")
    return DiscreteMap("alt-map", N, MapStepScale.EPS, kernels.ALT)


_FIXED_DIM = {"euler-hk": euler_hk, "cosine": cosine_law,
              "kov-sqrt": kov_sqrt, "kov-pullback": kov_pullback}
_ANY_DIM = {"gen-hk": gen_hk, "alt-map": alt_map}

MAP_NAMES = tuple(_FIXED_DIM) + tuple(_ANY_DIM)


def get_map(name: str, dim: int | None = None) -> DiscreteMap:
    """Look up a map by CLI name; gen-hk and alt-map require `dim`."""
    if name in _FIXED_DIM:
        m = _FIXED_DIM[name]()
        if dim is not None and dim != m.dim:
            raise DimensionError(f"{name} is three-dimensional")
        return m
    if name in _ANY_DIM:
        if dim is None:
            raise DimensionError(f"{name} needs an explicit dimension")
        return _ANY_DIM[name](dim)
    raise KeyError(f"unknown map {name!r}; known: {', '.join(MAP_NAMES)}")


# --- scalar machinery -------------------------------------------------------

def d_factors(y, eps: float) -> tuple[np.ndarray, float]:
    """(d, S) with d_i = 1 - eps*(-4*y_i + s) and S = 1 - eps * sum y_j/d_j."""
    y = as_state(y)
    s = float(y.sum())
    d = 1.0 - eps * (-4.0 * y + s)
    with np.errstate(all="ignore"):
        S = 1.0 - eps * float(np.sum(y / d))
    return d, S


def r_factor(y, eps: float) -> float:
    """R(y, eps) = 1 - eps * sum_j y_j / (1 + eps*y_j)."""
    y = as_state(y)
    w = 1.0 + eps * y
    if np.any(np.abs(w) < 1e-15 * (1.0 + np.abs(eps * y))):
        raise DomainError("r_factor undefined: some 1 + eps*y_j vanishes")
    return 1.0 - eps * float(np.sum(y / w))


def r_factor_omitting(y, eps: float, i: int) -> float:
    """R_i: as r_factor but with coordinate i left out of the sum."""
    y = as_state(y)
    rest = np.delete(y, i)
    w = 1.0 + eps * rest
    if np.any(np.abs(w) < 1e-15 * (1.0 + np.abs(eps * rest))):
        raise DomainError("r_factor_omitting undefined: some 1 + eps*y_j vanishes")
    return 1.0 - eps * float(np.sum(rest / w))


def d_polynomial(y, eps: float) -> float:
    """D(y, eps) = 1 - sum_{k=2..N} eps^k (k-1) e_k(y); satisfies
    R * prod(1 + eps*y_j) = D."""
    y = as_state(y)
    e = kernels.esp_all(y)
    n = y.shape[0]
    acc = 1.0
    for k in range(2, n + 1):
        acc -= eps ** k * (k - 1) * e[k]
    return float(acc)


def d_polynomial_omitting(y, eps: float, i: int) -> float:
    """D_i = D with y_i set to zero (equivalently omitted)."""
    y = as_state(y)
    reduced = np.delete(y, i)
    e = kernels.esp_all(reduced)
    acc = 1.0
    for k in range(2, reduced.shape[0] + 1):
        acc -= eps ** k * (k - 1) * e[k]
    return float(acc)


def r_reciprocity_residual(y, eps: float) -> float:
    """|R(y, eps) * R(ynew, -eps) - 1| for the alternative map."""
    y = as_state(y)
    ynew = alt_map(y.shape[0]).step(y, eps)
    return abs(r_factor(y, eps) * r_factor(ynew, -eps) - 1.0)


def s_relation_residuals(y, eps: float) -> tuple[float, float]:
    """Residuals of S(y, eps)*(1 + eps*s_new) = 1 and
    S(ynew, -eps)*(1 - eps*s) = 1 for the bilinearized map."""
    y = as_state(y)
    ynew = gen_hk(y.shape[0]).step(y, eps)
    s = float(y.sum())
    s_new = float(ynew.sum())
    _, S_fwd = d_factors(y, eps)
    _, S_bwd = d_factors(ynew, -eps)
    return (abs(S_fwd * (1.0 + eps * s_new) - 1.0),
            abs(S_bwd * (1.0 - eps * s) - 1.0))
