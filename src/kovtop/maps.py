"""Closed-form discrete maps with declared step scales, plus the scalar
machinery (R, D, d_i, S) entering their structural identities.

Every map here is implemented independently of the generic linear-solve
engine in `hk_engine`; agreement between the two routes is part of the test
suite, not an assumption.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .core import MapInverse, MapStepScale, as_state
from .errors import DimensionError, DomainError, SingularStepError
from .hk_engine import SINGULAR_RTOL, BilinearStepSystem


@dataclass(frozen=True)
class OrbitGuards:
    """Early-stop rules for orbit iteration.

    strain: stop when a step's regularity factor (denominator magnitude,
        normalised to 1 at eps = 0) drops below this.
    resolution: stop when |eps| * max|y_i| exceeds this.
    coincidence: stop when the state comes within this relative distance of a
        coincidence variety (y_i = y_j, or |y_i| = |y_j| for maps whose
        invariants are even).
    cap: hard bound on coordinate magnitude.
    """

    strain: float = 0.0
    resolution: float = math.inf
    coincidence: float = 0.0
    cap: float = kernels.BLOWUP_CAP


RAW_GUARDS = OrbitGuards()


@dataclass(frozen=True)
class DiscreteMap:
    """A parametrized step (state, eps) -> state with a declared time scale.

    `kernel_code` selects the compiled step/orbit kernels; maps assembled from
    other machinery (e.g. the generic bilinear engine) leave it None and
    iterate in Python.
    """

    name: str
    dim: int
    scale: MapStepScale
    step_raw: Callable[[np.ndarray, float], tuple[np.ndarray, float]]
    kernel_code: int | None = None
    inverse_rule: MapInverse = MapInverse.NEGATE_EPS
    even_invariants: bool = False

    def step_time(self, eps: float) -> float:
        """Continuous time advanced by one application."""
        return self.scale.factor * eps

    def step(self, y, eps: float) -> np.ndarray:
        y = as_state(y, self.dim)
        self._precheck(y, eps)
        with np.errstate(all="ignore"):
            out, reg = self.step_raw(y, eps)
        out = np.asarray(out, dtype=float)
        if reg < SINGULAR_RTOL or not np.all(np.isfinite(out)):
            raise SingularStepError(
                f"{self.name}: {self._singular_detail(y, eps)}", state=y, eps=eps)
        return out

    def inverse_step(self, y, eps: float) -> np.ndarray:
        if self.inverse_rule is not MapInverse.NEGATE_EPS:
            raise ValueError(f"{self.name} declares no inverse rule")
        return self.step(y, -eps)

    def orbit(self, y0, eps: float, steps: int,
              guards: OrbitGuards = RAW_GUARDS) -> tuple[np.ndarray, int]:
        """Iterate `steps` times; returns (states, last_step) where states has
        one row per recorded state and last_step < steps means an early stop
        under the given guards."""
        y0 = as_state(y0, self.dim)
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.kernel_code is not None:
            with np.errstate(all="ignore"):
                traj, end = kernels.map_orbit(
                    self.kernel_code, y0, eps, steps, guards.strain,
                    guards.resolution, guards.coincidence, self.even_invariants,
                    guards.cap)
            return np.asarray(traj), int(end)
        return self._orbit_python(y0, eps, steps, guards)

    def _orbit_python(self, y0, eps, steps, guards):
        traj = np.empty((steps + 1, self.dim))
        traj[0] = y0
        y = y0
        end = steps
        for k in range(steps):
            with np.errstate(all="ignore"):
                ynew, reg = self.step_raw(y, eps)
            ynew = np.asarray(ynew, dtype=float)
            big = np.max(np.abs(ynew)) if np.all(np.isfinite(ynew)) else np.inf
            if (not np.isfinite(big) or big > guards.cap or reg < guards.strain
                    or abs(eps) * big > guards.resolution
                    or kernels._coincidence_depth(ynew, self.even_invariants)
                    < guards.coincidence):
                end = k
                break
            traj[k + 1] = ynew
            y = ynew
        return traj[: end + 1], end

    def _precheck(self, y, eps):
        if self.kernel_code == kernels.COSINE:
            bad = np.flatnonzero(eps * eps * y * y >= 1.0)
            if bad.size:
                raise DomainError(
                    f"cosine-law map needs eps^2*x_j^2 < 1; violated at index "
                    f"{int(bad[0]) + 1}")

    def _singular_detail(self, y, eps) -> str:
        if self.kernel_code == kernels.GEN_HK:
            d, S = d_factors(y, eps)
            i = int(np.argmin(np.abs(d)))
            if abs(d[i]) <= abs(S):
                return f"denominator d_{i + 1} vanished"
            return "denominator S vanished"
        return "step denominator vanished"


def _raw_from_code(code):
    def raw(y, eps):
        return kernels.map_step(code, y, eps)

    return raw


def euler_hk() -> DiscreteMap:
    """Explicit bilinearized Euler top (one application advances 2*eps)."""
    return DiscreteMap("euler-hk", 3, MapStepScale.TWO_EPS,
                       _raw_from_code(kernels.EULER_HK),
                       kernel_code=kernels.EULER_HK, even_invariants=True)


def cosine_law() -> DiscreteMap:
    """Spherical-cosine-law step; its second iterate is euler_hk.  Real only
    on eps^2 x_j^2 < 1, principal square roots."""
    return DiscreteMap("cosine", 3, MapStepScale.EPS,
                       _raw_from_code(kernels.COSINE),
                       kernel_code=kernels.COSINE, even_invariants=True)


def kov_sqrt() -> DiscreteMap:
    """Birational square-root map: its second iterate is kov_pullback."""
    return DiscreteMap("kov-sqrt", 3, MapStepScale.EPS,
                       _raw_from_code(kernels.KOV_SQRT),
                       kernel_code=kernels.KOV_SQRT)


def kov_pullback() -> DiscreteMap:
    """Pull-back of euler_hk under y_i = x_j*x_k/x_i (advances 2*eps)."""
    return DiscreteMap("kov-pullback", 3, MapStepScale.TWO_EPS,
                       _raw_from_code(kernels.KOV_PULLBACK),
                       kernel_code=kernels.KOV_PULLBACK)


def gen_hk(N: int) -> DiscreteMap:
    """Explicit bilinearized generalized Kovalevskaya map
    ynew_i = y_i / (S * d_i), any N >= 3."""
    if N < 3:
        raise DimensionError("gen-hk needs N >= 3")
    return DiscreteMap("gen-hk", N, MapStepScale.TWO_EPS,
                       _raw_from_code(kernels.GEN_HK),
                       kernel_code=kernels.GEN_HK)


def alt_map(N: int) -> DiscreteMap:
    """Alternative discretization ynew_i = [y_i/(1+eps*y_i)] / R_i; for N = 3
    it coincides with kov_sqrt."""
    if N < 3:
        raise DimensionError("alt-map needs N >= 3")
    return DiscreteMap("alt-map", N, MapStepScale.EPS,
                       _raw_from_code(kernels.ALT),
                       kernel_code=kernels.ALT)


def from_bilinear_system(sys: BilinearStepSystem, name: str) -> DiscreteMap:
    """Adapter wrapping the generic linear-solve engine as a DiscreteMap."""

    def raw(y, eps):
        A = sys.matrix_builder(y, eps)
        det = np.linalg.det(A)
        hadamard = float(np.prod(np.linalg.norm(A, axis=1)))
        reg = abs(det) / hadamard if hadamard > 0 else 0.0
        if reg <= SINGULAR_RTOL:
            return np.full(sys.dim, np.nan), reg
        return np.linalg.solve(A, y), reg

    return DiscreteMap(name, sys.dim, sys.scale, raw)


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
