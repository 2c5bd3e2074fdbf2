"""Conserved quantities, invariant volume densities, and the certification
harness: drift reports, volume-form checks, functional-independence ranks,
defect-order estimation, convergence studies against the RK4 reference, and
the table of exact structural identities with its seeded trial battery.

Drift certification windows
---------------------------
These maps have finite-time poles and their orbits revisit the singular
region periodically.  In IEEE double precision every near-pole step multiplies
the accumulated rounding error by roughly the inverse denominator magnitude,
and a pass near a coincidence variety (y_i close to y_j) permanently destroys
the information the conserved quantities carry.  Drift is therefore certified
on a *tracking window*: the orbit prefix before the first strained step
(regularity < 0.01), resolution-bound violation (|eps|*max|y| > 0.2), or
coincidence approach (relative depth < 1e-6).  Within the window, points where
an individual invariant loses more than three digits to cancellation are
masked out instead of ending the window.  The window end lands in
DriftReport.first_blowup_step.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import as_state, fmt17
from .errors import (DimensionError, DomainError, ParameterError,
                     SingularStepError)
from .flows import (FlowSpec, euler_top3, generalized_kovalevskaya,
                    integrate_reference, kovalevskaya3, kovalevskaya_field,
                    rk4_states)
from .hk_engine import hk_step, polarize
from .maps import (DiscreteMap, OrbitGuards, alt_map, cosine_law, d_factors,
                   d_polynomial, d_polynomial_omitting, euler_hk, gen_hk,
                   kov_pullback, kov_sqrt, r_factor, r_reciprocity_residual,
                   s_relation_residuals)
from .numdiff import central_gradient, central_jacobian

#: relative cancellation below which a single evaluation point is masked
CANCEL_TOL = 1e-3

#: orbit guards used for drift certification (see module docstring)
TRACKING_GUARDS = OrbitGuards(strain=0.01, resolution=0.2, coincidence=1e-6)

#: the three ways to split {1,2,3,4} into two pairs (0-based)
PARTITIONS_4 = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))

_CYCLIC_3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _sep_ok(a, b):
    return np.abs(a - b) > CANCEL_TOL * (np.abs(a) + np.abs(b))


def _factor_ok(d, scale):
    return np.abs(d) > CANCEL_TOL * scale


@dataclass(frozen=True)
class Invariant:
    """A named scalar function of state (optionally of eps).

    `values_fn` evaluates over a batch of states, shape (T, N) -> (T,).
    `reliable_fn` marks points where double-precision evaluation holds at
    least ~12 digits (cancellation guard); `domain_fn` marks the open set on
    which the expression is defined at all (positivity, real square roots).
    """

    name: str
    dim: int
    family: str
    claimed_for: tuple[str, ...]
    values_fn: Callable[[np.ndarray, float], np.ndarray]
    reliable_fn: Callable[[np.ndarray, float], np.ndarray] | None = None
    domain_fn: Callable[[np.ndarray, float], np.ndarray] | None = None

    def _batch(self, Y):
        Y = np.asarray(Y, dtype=float)
        if Y.ndim == 1:
            Y = Y[None, :]
        if Y.shape[-1] != self.dim:
            raise DimensionError(
                f"{self.name} lives in dimension {self.dim}, got {Y.shape[-1]}")
        return Y

    def values(self, Y, eps: float = 0.0) -> np.ndarray:
        Y = self._batch(Y)
        with np.errstate(all="ignore"):
            return np.asarray(self.values_fn(Y, eps), dtype=float)

    def reliable(self, Y, eps: float = 0.0) -> np.ndarray:
        Y = self._batch(Y)
        if self.reliable_fn is None:
            return np.ones(Y.shape[0], dtype=bool)
        with np.errstate(all="ignore"):
            return np.asarray(self.reliable_fn(Y, eps), dtype=bool)

    def in_domain(self, Y, eps: float = 0.0) -> np.ndarray:
        Y = self._batch(Y)
        if self.domain_fn is None:
            return np.ones(Y.shape[0], dtype=bool)
        with np.errstate(all="ignore"):
            return np.asarray(self.domain_fn(Y, eps), dtype=bool)

    def value(self, y, eps: float = 0.0) -> float:
        """Scalar evaluation; raises DomainError outside the open domain."""
        y = as_state(y, self.dim)
        if not bool(self.in_domain(y, eps)[0]):
            raise DomainError(f"{self.name} undefined at this point")
        return float(self.values(y, eps)[0])


# --- invariant families -----------------------------------------------------

def _kov_K(Y, i):
    j, k = (i + 1) % 3, (i + 2) % 3
    return Y[:, i] * (Y[:, j] - Y[:, k])


def _kov_K_ok(Y, i):
    j, k = (i + 1) % 3, (i + 2) % 3
    return _sep_ok(Y[:, j], Y[:, k])


def kov_poly_integrals() -> list[Invariant]:
    """K_23 = y1(y2-y3), K_31 = y2(y3-y1), K_12 = y3(y1-y2); their sum
    vanishes identically."""
    out = []
    labels = ("K23", "K31", "K12")
    for i, label in enumerate(labels):
        out.append(Invariant(
            name=label, dim=3, family="kov-poly",
            claimed_for=("kov3", "gen-kov"),
            values_fn=lambda Y, eps, i=i: _kov_K(Y, i),
            reliable_fn=lambda Y, eps, i=i: _kov_K_ok(Y, i)))
    return out


def euler_poly_integrals(N: int = 3) -> list[Invariant]:
    """E_ij = x_i^2 - x_j^2 for all pairs."""
    out = []
    claimed = ("euler3", "gen-euler") if N == 3 else ("gen-euler",)
    for i in range(N):
        for j in range(i + 1, N):
            out.append(Invariant(
                name=f"E{i+1}{j+1}", dim=N, family="euler-poly",
                claimed_for=claimed,
                values_fn=lambda Y, eps, i=i, j=j:
                    (Y[:, i] - Y[:, j]) * (Y[:, i] + Y[:, j]),
                reliable_fn=lambda Y, eps, i=i, j=j:
                    _sep_ok(np.abs(Y[:, i]), np.abs(Y[:, j]))))
    return out


def euler_hk_integrals() -> list[Invariant]:
    """(x_m^2 - x_n^2) / (1 - eps^2 x_j^2) for every (m, n) pair and every j;
    conserved by the bilinearized Euler top and by its cosine-law square
    root."""
    out = []
    for m in range(3):
        for n in range(m + 1, 3):
            for j in range(3):
                def vals(Y, eps, m=m, n=n, j=j):
                    num = (Y[:, m] - Y[:, n]) * (Y[:, m] + Y[:, n])
                    return num / (1.0 - eps * eps * Y[:, j] ** 2)

                def ok(Y, eps, m=m, n=n, j=j):
                    den = 1.0 - eps * eps * Y[:, j] ** 2
                    return (_sep_ok(np.abs(Y[:, m]), np.abs(Y[:, n]))
                            & _factor_ok(den, 1.0 + eps * eps * Y[:, j] ** 2))

                out.append(Invariant(
                    name=f"E{m+1}{n+1}_hk{j+1}", dim=3, family="euler-hk-eps",
                    claimed_for=("euler-hk", "cosine"),
                    values_fn=vals, reliable_fn=ok))
    return out


def kov_hk_integrals() -> list[Invariant]:
    """K_mn / (1 - eps^2 (s - 2 y_j)^2): the deformed integrals of the
    three-dimensional bilinearized Kovalevskaya map."""
    out = []
    labels = ("K23", "K31", "K12")
    for i, label in enumerate(labels):
        for j in range(3):
            def vals(Y, eps, i=i, j=j):
                A = Y.sum(axis=1) - 2.0 * Y[:, j]
                return _kov_K(Y, i) / (1.0 - eps * eps * A * A)

            def ok(Y, eps, i=i, j=j):
                A = Y.sum(axis=1) - 2.0 * Y[:, j]
                den = 1.0 - eps * eps * A * A
                return _kov_K_ok(Y, i) & _factor_ok(den, 1.0 + eps * eps * A * A)

            out.append(Invariant(
                name=f"{label}_hk{j+1}", dim=3, family="kov-hk-eps",
                claimed_for=("gen-hk",), values_fn=vals, reliable_fn=ok))
    return out


def kov_product_integrals() -> list[Invariant]:
    """K_mn / (1 - eps^2 y_i y_j): conserved by the square-root map, its
    second iterate, and the alternative map at N = 3."""
    out = []
    labels = ("K23", "K31", "K12")
    for i, label in enumerate(labels):
        for a in range(3):
            for b in range(a + 1, 3):
                def vals(Y, eps, i=i, a=a, b=b):
                    return _kov_K(Y, i) / (1.0 - eps * eps * Y[:, a] * Y[:, b])

                def ok(Y, eps, i=i, a=a, b=b):
                    p = Y[:, a] * Y[:, b]
                    return (_kov_K_ok(Y, i)
                            & _factor_ok(1.0 - eps * eps * p, 1.0 + eps * eps * np.abs(p)))

                out.append(Invariant(
                    name=f"{label}_sq{a+1}{b+1}", dim=3, family="kov-sqrt-eps",
                    claimed_for=("kov-sqrt", "kov-pullback", "alt-map"),
                    values_fn=vals, reliable_fn=ok))
    return out


def flow_power_integrals(N: int, alpha: float = 2.0) -> list[Invariant]:
    """(y_i - y_j)/(y_i y_j) * (prod y)^(1/(N-alpha)): the superintegrable
    family of the continuous flow; positive orthant only."""
    if alpha == N:
        raise ParameterError("alpha must differ from N")
    expo = 1.0 / (N - alpha)
    fam = "flow-power" if alpha == 2.0 else f"flow-power(alpha={alpha:g})"
    out = []
    for i in range(N):
        for j in range(i + 1, N):
            def vals(Y, eps, i=i, j=j):
                P = np.prod(Y, axis=1)
                P = np.where(P > 0, P, np.nan)
                return (Y[:, i] - Y[:, j]) / (Y[:, i] * Y[:, j]) * P ** expo

            out.append(Invariant(
                name=f"K{i+1}{j+1}_flow", dim=N, family=fam,
                claimed_for=("gen-kov",),
                values_fn=vals,
                reliable_fn=lambda Y, eps, i=i, j=j: _sep_ok(Y[:, i], Y[:, j]),
                domain_fn=lambda Y, eps: np.all(Y > 0, axis=1)))
    return out


def quartet_integrals() -> list[Invariant]:
    """P_1 = (y1-y2)(y3-y4), P_2 = (y1-y3)(y2-y4), P_3 = (y1-y4)(y2-y3);
    P_1 - P_2 + P_3 = 0."""
    combos = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))
    out = []
    for p, (i, j, k, l) in enumerate(combos, start=1):
        out.append(Invariant(
            name=f"P{p}", dim=4, family="quartet", claimed_for=("gen-kov",),
            values_fn=lambda Y, eps, i=i, j=j, k=k, l=l:
                (Y[:, i] - Y[:, j]) * (Y[:, k] - Y[:, l]),
            reliable_fn=lambda Y, eps, i=i, j=j, k=k, l=l:
                _sep_ok(Y[:, i], Y[:, j]) & _sep_ok(Y[:, k], Y[:, l])))
    return out


def sqrt_quartet_integrals() -> list[Invariant]:
    """K_ij = (y_i - y_j) sqrt(y_k y_l / (y_i y_j)) at N = 4; products of
    complementary pairs recover P_1, P_2, P_3."""
    out = []
    for i in range(4):
        for j in range(i + 1, 4):
            k, l = [m for m in range(4) if m not in (i, j)]

            def vals(Y, eps, i=i, j=j, k=k, l=l):
                r = Y[:, k] * Y[:, l] / (Y[:, i] * Y[:, j])
                r = np.where(r > 0, r, np.nan)
                return (Y[:, i] - Y[:, j]) * np.sqrt(r)

            out.append(Invariant(
                name=f"K{i+1}{j+1}_s4", dim=4, family="quartet-sqrt",
                claimed_for=("gen-kov",),
                values_fn=vals,
                reliable_fn=lambda Y, eps, i=i, j=j: _sep_ok(Y[:, i], Y[:, j]),
                domain_fn=lambda Y, eps: np.all(Y > 0, axis=1)))
    return out


def cross_ratio_integrals(N: int) -> list[Invariant]:
    """H_ij / H_12 with H_ij = (y_i - y_j)/(y_i y_j): a spanning set of the
    cross-ratio family, conserved by both discretizations for every N and by
    the flows for any symmetric s."""
    out = []
    claimed = ("gen-hk", "alt-map", "kov3", "gen-kov", "kov-sqrt", "kov-pullback")
    for i in range(N):
        for j in range(i + 1, N):
            if (i, j) == (0, 1):
                continue

            def vals(Y, eps, i=i, j=j):
                num = (Y[:, i] - Y[:, j]) / (Y[:, i] * Y[:, j])
                den = (Y[:, 0] - Y[:, 1]) / (Y[:, 0] * Y[:, 1])
                return num / den

            def ok(Y, eps, i=i, j=j):
                return _sep_ok(Y[:, i], Y[:, j]) & _sep_ok(Y[:, 0], Y[:, 1])

            out.append(Invariant(
                name=f"H{i+1}{j+1}:H12", dim=N, family="cross-ratio",
                claimed_for=claimed,
                values_fn=vals, reliable_fn=ok,
                domain_fn=lambda Y, eps, i=i, j=j:
                    (Y[:, [0, 1, i, j]] != 0).all(axis=1) & (Y[:, 0] != Y[:, 1])))
    return out


def _quartet_phi_family(kind: str) -> list[Invariant]:
    claimed = ("gen-hk",) if kind == "hk" else ("alt-map",)
    family = "genhk4-phi" if kind == "hk" else "altmap4-phi"
    suffix = "hk4p" if kind == "hk" else "alt4p"
    out = []
    for m in range(4):
        for n in range(m + 1, 4):
            for p, ((i, j), (k, l)) in enumerate(PARTITIONS_4, start=1):
                def parts(Y, eps, i=i, j=j, k=k, l=l):
                    if kind == "hk":
                        diff = Y[:, i] + Y[:, j] - Y[:, k] - Y[:, l]
                        return 1.0 - eps * eps * diff * diff, np.ones(Y.shape[0])
                    return (1.0 - eps * eps * Y[:, i] * Y[:, j],
                            1.0 - eps * eps * Y[:, k] * Y[:, l])

                def vals(Y, eps, m=m, n=n, parts=parts):
                    f1, f2 = parts(Y, eps)
                    P = np.prod(Y, axis=1)
                    good = (P > 0) & (f1 > 0) & (f2 > 0)
                    P = np.where(good, P, np.nan)
                    arg = np.where(good, f1 * f2, np.nan)
                    K = (Y[:, m] - Y[:, n]) / (Y[:, m] * Y[:, n]) * np.sqrt(P)
                    return K / np.sqrt(arg)

                def dom(Y, eps, parts=parts):
                    f1, f2 = parts(Y, eps)
                    return np.all(Y > 0, axis=1) & (f1 > 0) & (f2 > 0)

                def ok(Y, eps, m=m, n=n, parts=parts):
                    f1, f2 = parts(Y, eps)
                    return _sep_ok(Y[:, m], Y[:, n]) & _factor_ok(f1 * f2, 1.0)

                out.append(Invariant(
                    name=f"K{m+1}{n+1}_{suffix}{p}", dim=4, family=family,
                    claimed_for=claimed, values_fn=vals, reliable_fn=ok,
                    domain_fn=dom))
    return out


def genhk_n4_integrals() -> list[Invariant]:
    """K_mn * (1 - eps^2(y_i+y_j-y_k-y_l)^2)^(-1/2): the extra integrals of
    the bilinearized map at N = 4."""
    return _quartet_phi_family("hk")


def altmap_n4_integrals() -> list[Invariant]:
    """K_mn * ((1-eps^2 y_i y_j)(1-eps^2 y_k y_l))^(-1/2): the extra
    integrals of the alternative map at N = 4."""
    return _quartet_phi_family("alt")


def registry(N: int, alpha: float = 2.0) -> list[Invariant]:
    """Every invariant family instantiated at dimension N, tagged with the
    flows/maps it is claimed for.  alpha parametrizes the flow power-law
    family (default 2 is the base system).

    The families are built once per (N, alpha) and process; each call
    returns a new list of the same frozen Invariants, which the caller may
    change."""
    # -0.0 == 0.0 share a cache key, but the power-law family name spells
    # the sign of alpha
    return list(_registry(N, alpha, math.copysign(1.0, alpha)))


# bounded, so that a sweep over alpha keeps only the latest families
@functools.lru_cache(maxsize=32)
def _registry(N: int, alpha: float, _sign: float) -> tuple[Invariant, ...]:
    if N < 3:
        raise DimensionError("registry needs N >= 3")
    out: list[Invariant] = []
    out += flow_power_integrals(N, alpha)
    out += cross_ratio_integrals(N)
    out += euler_poly_integrals(N)
    if N == 3:
        out += kov_poly_integrals()
        out += euler_hk_integrals()
        out += kov_hk_integrals()
        out += kov_product_integrals()
    if N == 4:
        out += quartet_integrals()
        out += sqrt_quartet_integrals()
        out += genhk_n4_integrals()
        out += altmap_n4_integrals()
    return tuple(out)


def cross_ratio(y, i: int, j: int, k: int, l: int) -> float:
    """(y_i - y_j)/(y_i y_j) * (y_k y_l)/(y_k - y_l), 0-based indices."""
    y = as_state(y)
    for idx in (i, j, k, l):
        if y[idx] == 0.0:
            raise DomainError(f"cross_ratio undefined: y_{idx + 1} = 0")
    if y[k] == y[l]:
        raise DomainError("cross_ratio undefined: y_k = y_l")
    return float((y[i] - y[j]) / (y[i] * y[j]) * (y[k] * y[l]) / (y[k] - y[l]))


# --- drift harness ----------------------------------------------------------

@dataclass
class DriftReport:
    map: str
    invariant: str
    eps: float
    steps: int
    max_rel_drift: float
    first_blowup_step: int | None = None


def _target_key(target) -> str:
    return target.name.split("(")[0]


def claimed_invariants(target, invs: Sequence[Invariant]) -> list[Invariant]:
    """The invariants from `invs` claimed for this flow/map at its dimension."""
    key = _target_key(target)
    return [v for v in invs if key in v.claimed_for and v.dim == target.dim]


def _orbit_of(target, y0, eps: float, steps: int, guards: OrbitGuards):
    if isinstance(target, DiscreteMap):
        return target.orbit(y0, eps, steps, guards)
    if isinstance(target, FlowSpec):
        return rk4_states(target, y0, eps, steps)
    raise TypeError(f"cannot iterate {type(target).__name__}")


def drift_report(target, inv: Invariant, y0, eps: float, steps: int,
                 guards: OrbitGuards = TRACKING_GUARDS) -> DriftReport:
    """Track one invariant along one orbit.

    Records the max over certified points of
    |F(y_t, eps) - F(ref, eps)| / max(1, |F(ref)|); the reference is the first
    reliably evaluable point.  Early window end (singularity, blowup,
    resolution or domain exit) is recorded in first_blowup_step; a start
    outside the invariant's domain ends the window at 0 with a NaN drift.
    Failures are reported, never raised.  This is drift_batch with one start.
    """
    return drift_batch(target, [inv], [as_state(y0, inv.dim)], eps, steps,
                       guards)[0]


def drift_batch(target, invs: Sequence[Invariant], starts, eps: float,
                steps: int,
                guards: OrbitGuards = TRACKING_GUARDS) -> list[DriftReport]:
    """Drift over several starts, one aggregated report per invariant
    (worst drift across starts, earliest window end).  Each start's orbit is
    computed once, serially in start order; each invariant is evaluated once
    on the stacked orbits and its drift is read per start as drift_report
    describes."""
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    if starts.size == 0:
        raise ParameterError("drift_batch needs at least one start")
    orbits = [_orbit_of(target, y0, eps, steps, guards) for y0 in starts]
    stack = np.concatenate([traj for traj, _ in orbits])
    bounds = np.cumsum([0] + [len(traj) for traj, _ in orbits])
    out = []
    for inv in invs:
        vals = inv.values(stack, eps)
        dom = inv.in_domain(stack, eps)
        ok = inv.reliable(stack, eps) & np.isfinite(vals)
        drifts, ends = [], []
        for (_, end), lo, hi in zip(orbits, bounds[:-1], bounds[1:]):
            v, k = vals[lo:hi], ok[lo:hi]
            if not dom[lo:hi].all():
                cut = int(np.argmin(dom[lo:hi]))
                v, k = v[:cut], k[:cut]
                # a start outside the domain (cut 0) certifies no step: its
                # window ends at 0 with no drift
                end = min(end, max(cut - 1, 0))
            idx = np.flatnonzero(k)
            if idx.size >= 1:
                ref = v[idx[0]]
                drifts.append(float(np.max(np.abs(v[idx] - ref))
                                    / max(1.0, abs(ref))))
            if end < steps:
                ends.append(int(end))
        out.append(DriftReport(map=_target_key(target), invariant=inv.name,
                               eps=eps, steps=steps,
                               max_rel_drift=max(drifts) if drifts else math.nan,
                               first_blowup_step=min(ends) if ends else None))
    return out


def random_starts(n: int, dim: int, seed: int, low: float = 0.1,
                  high: float = 2.0, min_sep: float = 1e-3) -> np.ndarray:
    """Seeded uniform starts in [low, high]^dim, rejecting near-coincident
    coordinate pairs (|y_i - y_j| < min_sep)."""
    rng = np.random.default_rng(seed)
    out = np.empty((n, dim))
    got = 0
    while got < n:
        y = rng.uniform(low, high, dim)
        d = np.abs(y[:, None] - y[None, :]) + np.eye(dim)
        if d.min() >= min_sep:
            out[got] = y
            got += 1
    return out


# --- volume forms -----------------------------------------------------------

def volume_check(map_: DiscreteMap, psi, y, eps: float) -> float:
    """|det(d ynew / d y) - psi(ynew)/psi(y)| / |det|, with the Jacobian from
    central finite differences."""
    y = as_state(y, map_.dim)
    p0 = float(psi(y, eps))
    if not np.isfinite(p0) or p0 == 0.0:
        raise DomainError("volume density vanishes or is undefined at y")
    ynew = map_.step(y, eps)
    p1 = float(psi(ynew, eps))
    J = float(np.linalg.det(central_jacobian(lambda z: map_.step(z, eps), y)))
    return abs(J - p1 / p0) / abs(J)


def density_euler_hk(j: int):
    """(1 - eps^2 x_j^2)^2, any j."""
    def psi(x, eps):
        return (1.0 - eps * eps * x[j] ** 2) ** 2
    return psi


def density_kov_hk(j: int):
    """(1 - eps^2 (s - 2 y_j)^2)^2, any j."""
    def psi(y, eps):
        A = float(np.sum(y)) - 2.0 * y[j]
        return (1.0 - eps * eps * A * A) ** 2
    return psi


def density_kov_product(i: int, j: int):
    """(1 - eps^2 y_i y_j)^2, any pair."""
    def psi(y, eps):
        return (1.0 - eps * eps * y[i] * y[j]) ** 2
    return psi


def density_cross_power(i: int = 0, j: int = 1):
    """((y_i - y_j)/(y_i y_j))^(N-1) * (prod y)^2: the shared volume density
    of both N-dimensional discretizations (eps-free)."""
    def psi(y, eps):
        n = len(y)
        h = (y[i] - y[j]) / (y[i] * y[j])
        return h ** (n - 1) * float(np.prod(y)) ** 2
    return psi


def density_flow_power(alpha: float = 2.0):
    """(prod y)^((N+1-2*alpha)/(N-alpha)): volume density of the continuous
    flow (positive orthant)."""
    def psi(y, eps):
        n = len(y)
        P = float(np.prod(y))
        if P <= 0:
            raise DomainError("flow volume density needs the positive orthant")
        return P ** ((n + 1.0 - 2.0 * alpha) / (n - alpha))
    return psi


# --- functional independence ------------------------------------------------

def invariant_gradients(invs: Sequence[Invariant], y,
                        eps: float = 0.0) -> np.ndarray:
    """Central-difference gradients at y, one row per invariant.

    Every invariant is evaluated once on the whole (2N, N) stencil; raises
    DomainError when a stencil point is non-finite or outside an invariant's
    domain.
    """
    y = as_state(y)

    def stacked(Z):
        finite = np.isfinite(Z).all(axis=1)
        V = np.empty((len(invs), Z.shape[0]))
        for r, inv in enumerate(invs):
            if not (inv.in_domain(Z, eps) & finite).all():
                raise DomainError(f"{inv.name} undefined at this point")
            V[r] = inv.values(Z, eps)
        return V

    return central_gradient(stacked, y)


def independence_rank(invs: Sequence[Invariant], y, eps: float = 0.0,
                      sv_rtol: float = 1e-8) -> int:
    """Numerical rank of the stacked finite-difference gradients.

    Rows are normalized to unit length before the SVD so families mixing
    scales measure functional rank rather than magnitude disparity; singular
    values above sv_rtol times the largest count toward the rank.
    """
    G = invariant_gradients(invs, y, eps)
    for r in range(G.shape[0]):
        norm = np.linalg.norm(G[r])
        if norm > 1e-12:
            G[r] /= norm
    s = np.linalg.svd(G, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > sv_rtol * s[0]))


# --- defect order -----------------------------------------------------------

def defect_order(map_: DiscreteMap, candidate: Invariant, y0,
                 eps_list: Sequence[float], raw_floor: float = 1e-14) -> float:
    """Order (in eps) of the candidate's per-unit-time one-step defect.

    For each eps the raw defect |F(map(y0, eps), eps) - F(y0, eps)| is divided
    by the time one application advances (scale * eps); the returned value is
    the least-squares log-log slope of that rate.  A flow integral under a
    second-order map rates O(eps^2); exact integrals of the map leave all raw
    defects below `raw_floor` and return math.inf.
    """
    eps_arr = np.asarray(list(eps_list), dtype=float)
    if eps_arr.size < 1 or np.any(eps_arr <= 0) or np.any(np.diff(eps_arr) >= 0):
        raise ParameterError("eps_list must be strictly decreasing and positive")
    y0 = as_state(y0, map_.dim)
    raw = np.empty(eps_arr.size)
    for idx, e in enumerate(eps_arr):
        ynew = map_.step(y0, e)
        raw[idx] = abs(candidate.value(ynew, e) - candidate.value(y0, e))
    if np.all(raw < raw_floor):
        return math.inf
    keep = raw > raw_floor
    if np.sum(keep) < 2:
        return math.inf
    rate = raw[keep] / (map_.scale.factor * eps_arr[keep])
    slope = np.polyfit(np.log(eps_arr[keep]), np.log(rate), 1)[0]
    return float(slope)


# --- convergence order ------------------------------------------------------

# the flow each three-dimensional map discretizes; gen-hk and alt-map
# discretize gen-kov (alpha = 2) in the map's dimension
_REFERENCE_FLOWS = {"euler-hk": euler_top3, "cosine": euler_top3,
                    "kov-sqrt": kovalevskaya3, "kov-pullback": kovalevskaya3}


def convergence_study(m: DiscreteMap, y0, total_time: float, eps_list,
                      dt_ref: float = 1e-4):
    """Error of k map applications against the RK4 reference of the flow the
    map discretizes, at the same total time, k = total_time / (scale * eps).
    Returns (rows, slope); slope is None when fewer than two eps values are
    given."""
    flow = (_REFERENCE_FLOWS[m.name]() if m.name in _REFERENCE_FLOWS
            else generalized_kovalevskaya(m.dim, 2.0))
    y0 = as_state(y0, m.dim)
    nref = max(1, round(total_time / dt_ref))
    ref = integrate_reference(flow, y0, total_time, total_time / nref)
    target = ref.states[-1]
    rows = []
    for eps in eps_list:
        k = round(total_time / m.step_time(eps))
        if k < 1 or abs(k * m.step_time(eps) - total_time) > 1e-9 * total_time:
            raise ParameterError(
                f"eps={eps} does not tile total time {total_time}")
        y = y0
        for _ in range(k):
            y = m.step(y, eps)
        rows.append((eps, float(np.max(np.abs(y - target)))))
    slope = None
    if len(rows) >= 2:
        le = np.log([r[0] for r in rows])
        lv = np.log([max(r[1], 1e-300) for r in rows])
        slope = float(np.polyfit(le, lv, 1)[0])
    return rows, slope


# --- exact structural identities --------------------------------------------

def verify_phi_functional_equation(N: int, y, eps: float, phi) -> float:
    """Relative residual of phi(ynew)/phi(y) =
    (1 + eps*s_new)/(1 - eps*s) * (prod y / prod ynew)^(1/(N-2)) under the
    bilinearized map; positive orthant only."""
    y = as_state(y, N)
    if np.any(y <= 0):
        raise DomainError("functional equation check needs positive coordinates")
    ynew = gen_hk(N).step(y, eps)
    if np.any(ynew <= 0):
        raise DomainError("image left the positive orthant")
    s = float(y.sum())
    s_new = float(ynew.sum())
    lhs = phi(ynew, eps) / phi(y, eps)
    rhs = (1.0 + eps * s_new) / (1.0 - eps * s) \
        * (float(np.prod(y)) / float(np.prod(ynew))) ** (1.0 / (N - 2.0))
    return abs(lhs - rhs) / abs(rhs)


def phi_genhk3(j: int = 0):
    """1 / (1 - eps^2 (s - 2 y_j)^2)."""
    def phi(y, eps):
        A = float(np.sum(y)) - 2.0 * y[j]
        return 1.0 / (1.0 - eps * eps * A * A)
    return phi


def phi_genhk4(partition: int = 0):
    """(1 - eps^2 (y_i + y_j - y_k - y_l)^2)^(-1/2)."""
    (i, j), (k, l) = PARTITIONS_4[partition]

    def phi(y, eps):
        diff = y[i] + y[j] - y[k] - y[l]
        return 1.0 / math.sqrt(1.0 - eps * eps * diff * diff)
    return phi


def phi_alt3(i: int = 0, j: int = 1):
    """1 / (1 - eps^2 y_i y_j)."""
    def phi(y, eps):
        return 1.0 / (1.0 - eps * eps * y[i] * y[j])
    return phi


def phi_alt4(partition: int = 0):
    """((1 - eps^2 y_i y_j)(1 - eps^2 y_k y_l))^(-1/2)."""
    (i, j), (k, l) = PARTITIONS_4[partition]

    def phi(y, eps):
        return 1.0 / math.sqrt((1.0 - eps * eps * y[i] * y[j])
                               * (1.0 - eps * eps * y[k] * y[l]))
    return phi


def verify_poly_identity_N4(y, eps: float) -> float:
    """Max residual over the three pair partitions of
    D_i D_j - eps^2 y_i y_j (1+eps*y_k)^2 (1+eps*y_l)^2 = (1 - eps^2 y_k y_l) D,
    normalized by 1 + |D|.  Holds identically only at N = 4."""
    y = as_state(y, 4)
    D = d_polynomial(y, eps)
    worst = 0.0
    for (i, j), (k, l) in PARTITIONS_4:
        Di = d_polynomial_omitting(y, eps, i)
        Dj = d_polynomial_omitting(y, eps, j)
        lhs = Di * Dj - eps * eps * y[i] * y[j] \
            * (1.0 + eps * y[k]) ** 2 * (1.0 + eps * y[l]) ** 2
        rhs = (1.0 - eps * eps * y[k] * y[l]) * D
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(D)))
    return worst


def verify_relation_qq(map_: DiscreteMap, y, eps: float) -> float:
    """Index-independence of (ynew_i - ynew_j)/(ynew_i ynew_j) *
    (y_i y_j)/(y_i - y_j): equals (1 - eps*s)/(1 + eps*s_new) for the
    bilinearized map and R(y, eps) for the alternative map.  Returns the max
    deviation over all index pairs."""
    y = as_state(y, map_.dim)
    n = y.shape[0]
    if np.any(y == 0):
        raise DomainError("relation needs nonzero coordinates")
    for i in range(n):
        for j in range(i + 1, n):
            if y[i] == y[j]:
                raise DomainError("relation needs distinct coordinates")
    ynew = map_.step(y, eps)
    if map_.name == "gen-hk":
        s = float(y.sum())
        s_new = float(ynew.sum())
        rhs = (1.0 - eps * s) / (1.0 + eps * s_new)
    elif map_.name == "alt-map":
        rhs = r_factor(y, eps)
    else:
        raise ValueError("relation applies to gen-hk and alt-map")
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            lhs = (ynew[i] - ynew[j]) / (ynew[i] * ynew[j]) \
                * (y[i] * y[j]) / (y[i] - y[j])
            worst = max(worst, abs(lhs - rhs))
    return worst


def _gap(x, ref) -> float:
    return float(np.max(np.abs(x - ref)) / (1.0 + np.max(np.abs(ref))))


def _step_ratio(y, eps, n):
    return max(verify_relation_qq(gen_hk(n), y, eps),
               verify_relation_qq(alt_map(n), y, eps))


def _r_product(y, eps, n):
    lhs = r_factor(y, eps) * float(np.prod(1.0 + eps * y))
    return abs(lhs - d_polynomial(y, eps))


def _phi_eq(y, eps, n):
    phi = phi_genhk3() if n == 3 else phi_genhk4()
    return verify_phi_functional_equation(n, y, eps, phi)


def _sqrt_comp(y, eps, n):
    return max(_gap(half.step(half.step(y, eps), eps), full.step(y, eps))
               for half, full in ((cosine_law(), euler_hk()),
                                  (kov_sqrt(), kov_pullback())))


def _engine(y, eps, n):
    a = hk_step(polarize(kovalevskaya_field(n)), y, eps)
    return _gap(gen_hk(n).step(y, eps), a)


# polynomial identities tolerate any eps; step-based ones are checked on the
# resolvable region (moderate eps, non-strained steps)
_POLY, _STEP = (0.01, 0.3), (0.01, 0.1)

#: name -> (residual(y, eps, n), range of the per-trial eps draw, dimensions
#: the identity holds at, or None for any N)
IDENTITIES = {
    "n4-poly": (lambda y, e, n: verify_poly_identity_N4(y, e), _POLY, (4,)),
    "s-relations": (lambda y, e, n: max(s_relation_residuals(y, e)),
                    _STEP, None),
    "r-reciprocity": (lambda y, e, n: r_reciprocity_residual(y, e),
                      _STEP, None),
    "step-ratio": (_step_ratio, _STEP, None),
    "d-sum": (lambda y, e, n: abs(float(d_factors(y, e)[0].sum()) - 4.0),
              _POLY, (4,)),
    "r-product": (_r_product, _POLY, None),
    "phi-eq": (_phi_eq, (0.01, 0.05), (3, 4)),
    "sqrt-comp": (_sqrt_comp, _STEP, (3,)),
    "engine": (_engine, _STEP, None),
}


def identity_battery(name: str, n: int, trials: int, seed: int,
                     eps: float | None = None) -> float:
    """Worst residual of identity `name` over `trials` seeded starts at
    dimension n, or at the identity's only dimension.  Each trial draws eps
    from the identity's range unless `eps` fixes it; a drawn eps that hits a
    singular or out-of-domain spot skips the trial, a fixed one raises.
    Raises DimensionError for a dimension the identity does not hold at
    (below 3 for any-N identities), and ParameterError when fewer than half
    the trials were evaluable."""
    residual, (lo, hi), dims = IDENTITIES[name]
    if dims is not None and len(dims) == 1:
        n = dims[0]
    elif dims is not None and n not in dims:
        raise DimensionError(f"{name} is defined for N = "
                             f"{' or '.join(map(str, dims))}, not N = {n}")
    elif n < 3:
        raise DimensionError(f"{name} needs N >= 3, not N = {n}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    evaluated = 0
    for y in random_starts(trials, n, seed):
        e = eps if eps is not None else float(rng.uniform(lo, hi))
        try:
            worst = max(worst, residual(y, e, n))
        except (DomainError, SingularStepError):
            if eps is not None:
                raise     # an explicit eps that aborts is a real abort
            continue      # drawn eps hit a singular/out-of-domain spot
        evaluated += 1
    if evaluated < max(1, trials // 2):
        raise ParameterError(
            f"identity {name!r}: only {evaluated}/{trials} trials were "
            "evaluable; tighten the eps range")
    return worst


# --- serialization ----------------------------------------------------------

DRIFT_CSV_HEADER = "map,invariant,eps,steps,max_rel_drift,first_blowup_step"


def drift_to_csv(reports: Sequence[DriftReport]) -> str:
    lines = [DRIFT_CSV_HEADER]
    for r in reports:
        blow = "" if r.first_blowup_step is None else str(r.first_blowup_step)
        lines.append(",".join([r.map, r.invariant, fmt17(r.eps), str(r.steps),
                               fmt17(r.max_rel_drift), blow]))
    return "\n".join(lines) + "\n"


def drift_to_json(reports: Sequence[DriftReport], status: str = "ok") -> str:
    # an unevaluable pair carries NaN internally; JSON gets null (strict JSON
    # has no NaN literal)
    return json.dumps({
        "status": status,
        "reports": [{
            "map": r.map,
            "invariant": r.invariant,
            "eps": r.eps,
            "steps": r.steps,
            "max_rel_drift": None if math.isnan(r.max_rel_drift) else r.max_rel_drift,
            "first_blowup_step": r.first_blowup_step,
        } for r in reports],
    })
