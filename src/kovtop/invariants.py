"""Conserved quantities, invariant volume densities, and the certification
harness: drift reports, volume-form checks, functional-independence ranks,
defect-order estimation, convergence studies against the RK4 reference, and
the table of exact structural identities with its seeded trial battery.

Invariant families
------------------
Each family (the cross-ratios H_ij:H_12, the deformed K integrals, the N = 4
quartet integrals, ...) is one vectorized formula over member index arrays:
evaluated at all its members, it gives (M, T) values and reliability and
domain masks in one numpy pass.  An `Invariant` is the formula at its own
indices.  Batches of members go through `evaluate`, which runs each family
present once; a member alone gets the same bits as in any batch.

Drift certification windows
---------------------------
These maps have finite-time poles and their orbits revisit the singular
region periodically.  In IEEE double precision every near-pole step multiplies
the accumulated rounding error by roughly the inverse denominator magnitude,
and a pass near a coincidence variety (y_i close to y_j) permanently destroys
the information the conserved quantities carry.  Drift is therefore certified
on a *tracking window*: the prefix of a tracked map orbit
(`DiscreteMap.orbit` with `tracking`) before the first strained step
(regularity below `kernels.STRAIN_FLOOR`, 0.01), resolution-bound violation
(|eps|*max|y| above `kernels.RESOLUTION_BOUND`, 0.2), or coincidence approach
(relative depth below `kernels.COINCIDENCE_DEPTH`, 1e-6).  Within the window,
points where an individual invariant loses more than three digits to
cancellation are masked out instead of ending the window.  The window end
lands in DriftReport.first_blowup_step.
"""
from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Sequence

import numpy as np

from .core import as_state, json_number
from .errors import (DimensionError, DomainError, ParameterError,
                     SingularStepError)
from .flows import (MAX_STEPS, FlowSpec, _alpha_text, check_step_count,
                    euler_top3, gen_kov_name, generalized_kovalevskaya,
                    integrate_reference, kovalevskaya3, kovalevskaya_field,
                    rk4_states)
from .hk_engine import hk_solve, hk_step, polarize
from .maps import (DiscreteMap, _d_list, _d_polynomial, _r_factor,
                   _r_reciprocity_residual, _s_relation_residuals, _total,
                   alt_map, cosine_law, euler_hk, gen_hk, kov_pullback,
                   kov_sqrt)
from .numdiff import central_gradient, central_jacobian

#: relative cancellation below which a single evaluation point is masked
CANCEL_TOL = 1e-3

#: draws `random_starts` makes for one start before it gives up; a draw is
#: kept with probability about exp(-0.00216 N(N-1)/2): 0.55 at N=24, 2e-5 at 100
MAX_START_DRAWS = 10**4

#: the `tracking` flag of every map orbit the drift harness runs (see module
#: docstring); a name, not a literal, because the benchmark's drift jobs pass
#: it to `DiscreteMap.orbit`
TRACKING_GUARDS = True

#: `independence_rank` counts singular values above RANK_RTOL * the largest
RANK_RTOL = 1e-8
#: most points `independence_rank` ranks in one stacked pass: a point's
#: stencil, values and gradients take some 2.6 KB, so an unblocked stack of
#: MAX_STEPS points would need about 26 GB
_RANK_BLOCK = 1024
#: most (N, N) entries one block of starts or trials holds: `random_starts`
#: checks a block of draws through (rows, N, N) pair arrays and the engine
#: identity builds a block's (rows, N, N) step matrices, so a block has
#: _BLOCK_ENTRIES // N^2 rows (65536 at N = 4) and memory stays bounded by
#: one block whatever the count
_BLOCK_ENTRIES = 2**20
#: `defect_order` fits only the one-step defects above DEFECT_FLOOR
DEFECT_FLOOR = 1e-14

#: the three ways to split {1,2,3,4} into two pairs (0-based)
PARTITIONS_4 = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))

_CYCLIC_3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _sep_ok(a, b):
    return np.abs(a - b) > CANCEL_TOL * (np.abs(a) + np.abs(b))


def _factor_ok(d, scale):
    return np.abs(d) > CANCEL_TOL * scale


#: a family formula (Y, eps, idx) -> (values, reliable, in_domain): Y is a
#: (T, N) stack of states and idx an (M, k) array holding one row of indices
#: per member; values are (M, T), each mask (M, T), (T,) or None for "all".
#: A formula reads its member columns in one `_columns` gather and computes
#: a factor its members share once only where each use runs the same
#: operations in the same order, so a member gets the bits it gets alone.
#: A deformed family divides by one denominator 1 - t and guards that one
#: (`_deformed`).
Formula = Callable[[np.ndarray, float, np.ndarray], tuple]


@dataclass(frozen=True)
class Invariant:
    """A named scalar function of state (optionally of eps): one member of an
    invariant family.

    A family is one vectorized formula over member index arrays; a member is
    that formula at its own `index`.  Batches of members go through
    `evaluate`, which runs each family present once.  The formula's values
    come with two masks: `reliable` marks points where double-precision
    evaluation holds at least ~12 digits (cancellation guard), `in_domain`
    the open set on which the expression is defined at all (positivity, real
    square roots).
    """

    name: str
    dim: int
    family: str
    claimed_for: tuple[str, ...]
    formula: Formula
    index: tuple[int, ...]

    def values(self, Y, eps: float = 0.0) -> np.ndarray:
        return evaluate([self], Y, eps)[0][0]

    def reliable(self, Y, eps: float = 0.0) -> np.ndarray:
        return evaluate([self], Y, eps)[1][0]

    def in_domain(self, Y, eps: float = 0.0) -> np.ndarray:
        return evaluate([self], Y, eps)[2][0]

    def value(self, y, eps: float = 0.0) -> float:
        """Scalar evaluation; raises DomainError outside the open domain."""
        vals, _, dom = evaluate([self], as_state(y, self.dim), eps)
        if not dom[0, 0]:
            raise DomainError(f"{self.name} undefined at this point")
        return float(vals[0, 0])


def evaluate(invs: Sequence[Invariant], Y, eps: float = 0.0):
    """(values, reliable, in_domain) of `invs` on a stack of states Y, shape
    (T, N) or (N,); each is (M, T) with rows in the order of `invs`.

    The members are grouped by family and each family formula runs once, on
    all of its members in the batch, under one errstate: one gather of
    their columns, and each factor they share computed once by the
    operations a member alone runs (see `Formula`), so a member gets the
    same bits in any batch.  An eps-family's reliability mask judges the
    denominator its value divides by.  An object stack keeps its element
    type, so `Fraction`s stay exact; others become floats.
    Raises DimensionError, before any formula runs, for a Y of any other
    shape (a ragged one included) and for a member of another dimension."""
    try:
        Y = np.asarray(Y)
    except ValueError:      # numpy refuses a ragged sequence
        raise DimensionError("expected a state (N,) or a stack (T, N) of "
                             "states, got a ragged sequence") from None
    if Y.ndim not in (1, 2):
        raise DimensionError("expected a state (N,) or a stack (T, N) of "
                             f"states, got shape {Y.shape}")
    Y = Y if Y.dtype == object else Y.astype(float, copy=False)
    if Y.ndim == 1:
        Y = Y[None, :]
    groups: dict[Formula, list[int]] = {}
    for r, inv in enumerate(invs):
        if inv.dim != Y.shape[-1]:
            raise DimensionError(
                f"{inv.name} lives in dimension {inv.dim}, got {Y.shape[-1]}")
        groups.setdefault(inv.formula, []).append(r)
    shape = (len(invs), Y.shape[0])
    vals = np.empty(shape, dtype=Y.dtype)
    ok = np.ones(shape, dtype=bool)
    dom = np.ones(shape, dtype=bool)
    with np.errstate(all="ignore"):
        for formula, rows in groups.items():
            v, k, d = formula(Y, eps, np.array([invs[r].index for r in rows]))
            # rows ascend; a run of consecutive rows is written as a slice
            if rows[-1] - rows[0] < len(rows):
                rows = slice(rows[0], rows[-1] + 1)
            vals[rows] = v
            if k is not None:
                ok[rows] = k
            if d is not None:
                dom[rows] = d
    return vals, ok, dom


def _columns(Y, idx):
    """The member columns of Y in one gather: a (k, M, T) array, one (M, T)
    block per column of the (M, k) idx."""
    return Y.T[idx.T]


# --- invariant families -----------------------------------------------------

def _members(family, dim, claimed, formula, named):
    return [Invariant(name=name, dim=dim, family=family, claimed_for=claimed,
                      formula=formula, index=tuple(index))
            for name, index in named]


def _kov_K(Yi, Yj, Yk):
    # K_i = y_i (y_j - y_k) and its guard
    return Yi * (Yj - Yk), _sep_ok(Yj, Yk)


def _euler_E(Ym, Yn):
    # E_mn = y_m^2 - y_n^2 and its guard
    return (Ym - Yn) * (Ym + Yn), _sep_ok(np.abs(Ym), np.abs(Yn))


def _deformed(F, F_ok, t):
    # F / (1 - t) for the deformation factor t, guarded at that denominator
    den = 1 - t
    return F / den, F_ok & _factor_ok(den, 1 + abs(t)), None


_KOV_LABELS = ("K23", "K31", "K12")


def _kov_poly(Y, eps, idx):
    return (*_kov_K(*_columns(Y, idx)), None)


def kov_poly_integrals() -> list[Invariant]:
    """K_23 = y1(y2-y3), K_31 = y2(y3-y1), K_12 = y3(y1-y2); their sum
    vanishes identically.  Conserved by the default-s flow at alpha = 2."""
    return _members("kov-poly", 3, ("kov3", gen_kov_name(3)), _kov_poly,
                    zip(_KOV_LABELS, _CYCLIC_3))


def _euler_poly(Y, eps, idx):
    return (*_euler_E(*_columns(Y, idx)), None)


def euler_poly_integrals(N: int = 3) -> list[Invariant]:
    """E_ij = x_i^2 - x_j^2 for all pairs."""
    claimed = ("euler3", "gen-euler") if N == 3 else ("gen-euler",)
    return _members("euler-poly", N, claimed, _euler_poly,
                    ((f"E{i+1}{j+1}", (i, j))
                     for i in range(N) for j in range(i + 1, N)))


def _euler_hk(Y, eps, idx):
    Ym, Yn, Yj = _columns(Y, idx)
    return _deformed(*_euler_E(Ym, Yn), eps * eps * Yj ** 2)


def euler_hk_integrals() -> list[Invariant]:
    """(x_m^2 - x_n^2) / (1 - eps^2 x_j^2) for every (m, n) pair and every j;
    conserved by the bilinearized Euler top and by its cosine-law square
    root."""
    return _members("euler-hk-eps", 3, ("euler-hk", "cosine"), _euler_hk,
                    ((f"E{m+1}{n+1}_hk{j+1}", (m, n, j))
                     for m in range(3) for n in range(m + 1, 3)
                     for j in range(3)))


def _kov_hk(Y, eps, idx):
    Yi, Yj, Yk, Yl = _columns(Y, idx)
    A = Y.sum(axis=1) - 2 * Yl
    return _deformed(*_kov_K(Yi, Yj, Yk), eps * eps * A * A)


def kov_hk_integrals() -> list[Invariant]:
    """K_mn / (1 - eps^2 (s - 2 y_j)^2): the deformed integrals of the
    three-dimensional bilinearized Kovalevskaya map."""
    return _members("kov-hk-eps", 3, ("gen-hk",), _kov_hk,
                    ((f"{label}_hk{j+1}", (*ijk, j))
                     for label, ijk in zip(_KOV_LABELS, _CYCLIC_3)
                     for j in range(3)))


def _kov_product(Y, eps, idx):
    Yi, Yj, Yk, Ya, Yb = _columns(Y, idx)
    return _deformed(*_kov_K(Yi, Yj, Yk), eps * eps * Ya * Yb)


def kov_product_integrals() -> list[Invariant]:
    """K_mn / (1 - eps^2 y_i y_j): conserved by the square-root map, its
    second iterate, and the alternative map at N = 3."""
    return _members("kov-sqrt-eps", 3, ("kov-sqrt", "kov-pullback", "alt-map"),
                    _kov_product,
                    ((f"{label}_sq{a+1}{b+1}", (*ijk, a, b))
                     for label, ijk in zip(_KOV_LABELS, _CYCLIC_3)
                     for a in range(3) for b in range(a + 1, 3)))


def _positive(Y):
    return np.all(Y > 0, axis=1)


def flow_power_integrals(N: int, alpha: float = 2.0) -> list[Invariant]:
    """(y_i - y_j)/(y_i y_j) * (prod y)^(1/(N-alpha)): the superintegrable
    family of the default-s flow at this alpha; positive orthant only."""
    if alpha == N:
        raise ParameterError("alpha must differ from N")
    expo = 1.0 / (N - alpha)

    def formula(Y, eps, idx):
        Yi, Yj = _columns(Y, idx)
        P = np.prod(Y, axis=1)
        P = np.where(P > 0, P, np.nan)
        return ((Yi - Yj) / (Yi * Yj) * P ** expo, _sep_ok(Yi, Yj),
                _positive(Y))

    fam = ("flow-power" if alpha == 2.0
           else f"flow-power(alpha={_alpha_text(alpha)})")
    return _members(fam, N, (gen_kov_name(N, alpha),), formula,
                    ((f"K{i+1}{j+1}_flow", (i, j))
                     for i in range(N) for j in range(i + 1, N)))


def _quartet(Y, eps, idx):
    Yi, Yj, Yk, Yl = _columns(Y, idx)
    return (Yi - Yj) * (Yk - Yl), _sep_ok(Yi, Yj) & _sep_ok(Yk, Yl), None


def quartet_integrals() -> list[Invariant]:
    """P_1 = (y1-y2)(y3-y4), P_2 = (y1-y3)(y2-y4), P_3 = (y1-y4)(y2-y3);
    P_1 - P_2 + P_3 = 0.  Conserved by the default-s flow at alpha = 2."""
    combos = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))
    return _members("quartet", 4, (gen_kov_name(4),), _quartet,
                    ((f"P{p}", c) for p, c in enumerate(combos, start=1)))


def _pairs_4():
    # every pair (i, j) of {1..4} with its complementary pair (k, l)
    for i in range(4):
        for j in range(i + 1, 4):
            yield (i, j), tuple(m for m in range(4) if m not in (i, j))


def _sqrt_quartet(Y, eps, idx):
    Yi, Yj, Yk, Yl = _columns(Y, idx)
    r = Yk * Yl / (Yi * Yj)
    r = np.where(r > 0, r, np.nan)
    return (Yi - Yj) * r ** 0.5, _sep_ok(Yi, Yj), _positive(Y)


def sqrt_quartet_integrals() -> list[Invariant]:
    """K_ij = (y_i - y_j) sqrt(y_k y_l / (y_i y_j)) at N = 4; products of
    complementary pairs recover P_1, P_2, P_3."""
    return _members("quartet-sqrt", 4, (gen_kov_name(4),), _sqrt_quartet,
                    ((f"K{i+1}{j+1}_s4", (i, j, *kl))
                     for (i, j), kl in _pairs_4()))


#: the pair (0, 1) of H_12, gathered as one more member row
_H12 = np.array([[0, 1]])


def _cross_ratio(Y, eps, idx):
    # the last row is H_12's: each member and the denominator get the same
    # operations, the denominator once
    Yi, Yj = _columns(Y, np.concatenate([idx, _H12]))
    H = (Yi - Yj) / (Yi * Yj)
    sep = _sep_ok(Yi, Yj)
    nonzero = (Yi != 0) & (Yj != 0)
    return (H[:-1] / H[-1], sep[:-1] & sep[-1],
            nonzero[:-1] & (nonzero[-1] & (Yi[-1] != Yj[-1])))


def cross_ratio_integrals(N: int) -> list[Invariant]:
    """H_ij / H_12 with H_ij = (y_i - y_j)/(y_i y_j): a spanning set of the
    cross-ratio family, conserved by both discretizations for every N and by
    the flows for any symmetric s."""
    claimed = ("gen-hk", "alt-map", "kov3", "gen-kov", "kov-sqrt", "kov-pullback")
    return _members("cross-ratio", N, claimed, _cross_ratio,
                    ((f"H{i+1}{j+1}:H12", (i, j))
                     for i in range(N) for j in range(i + 1, N)
                     if (i, j) != (0, 1)))


def _quartet_phi(Y, Ym, Yn, f, pos):
    # K_mn sqrt(prod y) / sqrt(f) from the gathered columns (Ym, Yn), with f
    # the deformation product and pos its factors' positivity; a point off
    # the domain (prod y or a factor not positive) gets NaN
    P = np.prod(Y, axis=1)
    P_pos = P > 0
    arg = np.where(P_pos & pos, f, np.nan)
    K = (Ym - Yn) / (Ym * Yn) * np.where(P_pos, P, np.nan) ** 0.5
    return (K / arg ** 0.5, _sep_ok(Ym, Yn) & _factor_ok(f, 1.0),
            _positive(Y) & pos)


def _genhk4_phi(Y, eps, idx):
    Ym, Yn, Yi, Yj, Yk, Yl = _columns(Y, idx)
    diff = Yi + Yj - Yk - Yl
    f = 1 - eps * eps * diff * diff
    return _quartet_phi(Y, Ym, Yn, f, f > 0)


def _altmap4_phi(Y, eps, idx):
    Ym, Yn, Yi, Yj, Yk, Yl = _columns(Y, idx)
    f1 = 1 - eps * eps * Yi * Yj
    f2 = 1 - eps * eps * Yk * Yl
    return _quartet_phi(Y, Ym, Yn, f1 * f2, (f1 > 0) & (f2 > 0))


def _quartet_phi_family(family, claimed, suffix, formula) -> list[Invariant]:
    return _members(family, 4, claimed, formula,
                    ((f"K{m+1}{n+1}_{suffix}{p}", (m, n, i, j, k, l))
                     for (m, n), _ in _pairs_4()
                     for p, ((i, j), (k, l)) in enumerate(PARTITIONS_4, start=1)))


def genhk_n4_integrals() -> list[Invariant]:
    """K_mn * (1 - eps^2(y_i+y_j-y_k-y_l)^2)^(-1/2): the extra integrals of
    the bilinearized map at N = 4."""
    return _quartet_phi_family("genhk4-phi", ("gen-hk",), "hk4p", _genhk4_phi)


def altmap_n4_integrals() -> list[Invariant]:
    """K_mn * ((1-eps^2 y_i y_j)(1-eps^2 y_k y_l))^(-1/2): the extra
    integrals of the alternative map at N = 4."""
    return _quartet_phi_family("altmap4-phi", ("alt-map",), "alt4p",
                               _altmap4_phi)


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
    """The invariants from `invs` claimed for this flow/map at its dimension:
    for its kind (the name up to any parenthesis, as "gen-kov") or for the
    exact name (as one gen-kov flow's `flows.gen_kov_name`)."""
    key, name = _target_key(target), target.name
    return [v for v in invs if (key in v.claimed_for or name in v.claimed_for)
            and v.dim == target.dim]


def _orbit_of(target, y0, eps: float, steps: int):
    if isinstance(target, DiscreteMap):
        return target.orbit(y0, eps, steps, TRACKING_GUARDS)
    if isinstance(target, FlowSpec):
        return rk4_states(target, y0, eps, steps)
    raise TypeError(f"cannot iterate {type(target).__name__}")


def drift_report(target, inv: Invariant, y0, eps: float,
                 steps: int) -> DriftReport:
    """Track one invariant along one orbit, a map's under the tracking
    guards.

    Records the max over certified points of
    |F(y_t, eps) - F(ref, eps)| / max(1, |F(ref)|); the reference is the first
    reliably evaluable point.  Early window end (singularity, blowup, strain,
    resolution, coincidence or domain exit) is recorded in first_blowup_step;
    a start outside the invariant's domain ends the window at 0 with a NaN
    drift.  Failures are reported, never raised.  This is drift_batch with
    one start.
    """
    return drift_batch(target, [inv], [as_state(y0, inv.dim)], eps, steps)[0]


def drift_batch(target, invs: Sequence[Invariant], starts, eps: float,
                steps: int) -> list[DriftReport]:
    """Drift over several starts, one aggregated report per invariant
    (worst drift across starts, earliest window end).  Each start's orbit is
    computed once (a map's tracked), serially in start order; each family
    is evaluated once on the stacked orbits (`evaluate`), and every
    invariant's drift is read per start, as drift_report describes, with
    array operations over all invariants at once.  Steps outside
    1..`flows.MAX_STEPS` raise ParameterError before any orbit."""
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    check_step_count(steps, f"steps={steps}")
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    if starts.size == 0:
        raise ParameterError("drift_batch needs at least one start")
    orbits = [_orbit_of(target, y0, eps, steps) for y0 in starts]
    vals, ok, dom = evaluate(invs, np.concatenate([t for t, _, _ in orbits]), eps)
    ok &= np.isfinite(vals)
    rows = np.arange(len(invs))
    worst = np.full(len(invs), -math.inf)
    first_end = np.full(len(invs), steps)
    lo = 0
    for traj, _, _ in orbits:
        hi = lo + len(traj)
        # each row up to its first point outside the domain; a start outside
        # the domain (cut 0) certifies no step: its window ends at 0 with no
        # drift.  cut counts the leading in-domain rows among the orbit's
        # end + 1, so cut - 1 <= end, and a whole window keeps its end.
        inside = np.logical_and.accumulate(dom[:, lo:hi], axis=1)
        cut = inside.sum(axis=1)
        first_end = np.minimum(first_end, np.maximum(cut - 1, 0))
        k = ok[:, lo:hi] & inside
        v = vals[:, lo:hi]
        ref = v[rows, k.argmax(axis=1)]
        gap = np.abs(np.subtract(v, ref[:, None], out=np.zeros_like(v), where=k))
        drift = gap.max(axis=1) / np.maximum(1.0, np.abs(ref))
        worst = np.where(k.any(axis=1), np.maximum(worst, drift), worst)
        lo = hi
    key = _target_key(target)
    return [DriftReport(map=key, invariant=inv.name, eps=eps, steps=steps,
                        max_rel_drift=w if w > -math.inf else math.nan,
                        first_blowup_step=e if e < steps else None)
            for inv, w, e in zip(invs, worst.tolist(), first_end.tolist())]


def random_starts(n: int, dim: int, seed: int) -> np.ndarray:
    """Seeded uniform starts in the box [0.1, 2]^dim, rejecting a draw with a
    pair |y_i - y_j| <= CANCEL_TOL * (|y_i| + |y_j|), as the masks drop it.

    The draws come in blocks of at most _BLOCK_ENTRIES // dim^2 rows and at
    most as many rows as starts are still missing, each block checked at
    once, and the accepted rows are kept in stream order: the starts and the
    draws made are those of drawing one row at a time.  Raises
    ParameterError for n < 1 and n > `flows.MAX_STEPS`, before any draw, and
    when MAX_START_DRAWS draws in a row give no start."""
    if n < 1:
        raise ParameterError(f"random_starts needs n >= 1 starts, got {n}")
    if n > MAX_STEPS:
        raise ParameterError(f"random_starts needs n <= MAX_STEPS = "
                             f"{MAX_STEPS:.0e} starts, got {n}")
    out = np.empty((n, dim))
    done = 0
    for kept in _start_blocks(n, dim, seed):
        out[done:done + len(kept)] = kept
        done += len(kept)
    return out


def _start_blocks(n: int, dim: int, seed: int):
    """The starts of `random_starts(n, dim, seed)` (n checked), as the
    accepted rows of one block of draws at a time; a block with none is
    not yielded."""
    rng = np.random.default_rng(seed)
    rows = max(1, _BLOCK_ENTRIES // (dim * dim or 1))   # dim 0: no pairs
    done = 0
    misses = 0      # draws rejected since the last accepted one
    while done < n:
        block = rng.uniform(0.1, 2.0, (min(n - done, rows), dim))
        # every ordered pair: (i, j) and (j, i) give the same bits, and the
        # diagonal never passes
        sep = _sep_ok(block[:, :, None], block[:, None, :])
        ok = sep.sum(axis=(1, 2)) == dim * (dim - 1)
        for accepted in ok.tolist():
            misses = 0 if accepted else misses + 1
            if misses == MAX_START_DRAWS:
                raise ParameterError(
                    f"no start at N = {dim} in MAX_START_DRAWS = "
                    f"{MAX_START_DRAWS} draws has every coordinate pair "
                    f"separated by CANCEL_TOL = {CANCEL_TOL:g}")
        kept = block[ok]
        if len(kept):
            done += len(kept)
            yield kept


# --- volume forms -----------------------------------------------------------

def _density(psi, y, eps) -> float:
    # psi(y) as a float, with the value a float64 state gave where Python
    # floats raise: inf where a power overflows, NaN where a quotient has a
    # zero denominator
    try:
        return float(psi(y, eps))
    except OverflowError:
        return math.inf
    except ZeroDivisionError:
        return math.nan


def volume_check(map_: DiscreteMap, psi, y, eps: float) -> float:
    """|det(d ynew / d y) - psi(ynew)/psi(y)| / |det|, with the Jacobian from
    central finite differences of `map_.checked_step`: each stencil point is
    checked as `map_.step` would check it.  The image and the 2N stencil
    points run through one `map_.stepper`, which picks the kernel binding
    once per point.  psi gets states as lists of floats.

    The image and det J do not depend on psi, so the last point keeps them,
    keyed on the map itself (`is`, not equality) and on the bytes of y and
    eps as doubles: each further density checked there evaluates only psi.
    The bytes tell 0.0 from -0.0, so a repeat gets the bits a first call
    gets; a step or stencil that raises keeps the entry before it."""
    global _last_image
    y = as_state(y, map_.dim).tolist()
    p0 = _density(psi, y, eps)
    if not math.isfinite(p0) or p0 == 0.0:
        raise DomainError("volume density vanishes or is undefined at y")
    e = float(eps)
    key = struct.pack(f"{len(y) + 1}d", *y, e)
    last_map, last_key, image = _last_image
    if last_map is not map_ or last_key != key:
        image = _image_and_det(map_, y, e)
        _last_image = (map_, key, image)
    ynew, J = image
    p1 = _density(psi, list(ynew), eps)
    return abs(J - p1 / p0) / abs(J)


# (map, key, (ynew, det J)) of the last point `volume_check` stepped: one
# entry, since criterion 2 checks every density at a point before the next
# point, and nothing is kept past it.  One tuple, replaced whole, so a
# reader never pairs one point's key with another point's image.
_last_image = (None, b"", None)


def _image_and_det(map_: DiscreteMap, y: list, e: float) -> tuple[tuple, float]:
    step = map_.stepper(y, e)
    ynew = tuple(step(y))
    return ynew, float(np.linalg.det(central_jacobian(step, y)))


# The densities and the phi factors below take a state as any sequence of
# numbers (a list of floats from `volume_check`, `Fraction`s, a float64
# array) and sum and multiply over it in index order.

def density_euler_hk(j: int):
    """(1 - eps^2 x_j^2)^2, any j."""
    def psi(x, eps):
        return (1 - eps * eps * x[j] ** 2) ** 2
    return psi


def density_kov_hk(j: int):
    """(1 - eps^2 (s - 2 y_j)^2)^2, any j."""
    def psi(y, eps):
        A = _total(y) - 2 * y[j]
        return (1 - eps * eps * A * A) ** 2
    return psi


def density_kov_product(i: int, j: int):
    """(1 - eps^2 y_i y_j)^2, any pair."""
    def psi(y, eps):
        return (1 - eps * eps * y[i] * y[j]) ** 2
    return psi


def density_cross_power(i: int = 0, j: int = 1):
    """((y_i - y_j)/(y_i y_j))^(N-1) * (prod y)^2: the shared volume density
    of both N-dimensional discretizations (eps-free)."""
    def psi(y, eps):
        n = len(y)
        h = (y[i] - y[j]) / (y[i] * y[j])
        return h ** (n - 1) * math.prod(y) ** 2
    return psi


def density_flow_power(alpha: float = 2.0):
    """(prod y)^((N+1-2*alpha)/(N-alpha)): volume density of the continuous
    flow (positive orthant)."""
    def psi(y, eps):
        n = len(y)
        P = math.prod(y)
        if P <= 0:
            raise DomainError("flow volume density needs the positive orthant")
        return P ** ((n + 1.0 - 2.0 * alpha) / (n - alpha))
    return psi


# --- functional independence ------------------------------------------------

def invariant_gradients(invs: Sequence[Invariant], y,
                        eps: float = 0.0) -> np.ndarray:
    """Central-difference gradients, one row per invariant: (M, N) at a
    point y, (P, M, N) at each point of a (P, N) stack.

    Every family is evaluated once, on the stencils of all the points
    together; each point gets the bits it gets alone.  Raises DomainError
    when a stencil point is non-finite or outside an invariant's domain,
    naming the first such invariant at the first such point, as a loop over
    the points would.
    """
    Y = np.asarray(y, dtype=float)
    for row in (Y if Y.ndim == 2 else [Y]):   # each point checked alone
        as_state(row)
    n = Y.shape[-1]

    def stacked(Z):
        V, _, dom = evaluate(invs, Z, eps)
        dom &= np.isfinite(Z).all(axis=1)
        if not dom.all():
            ok = dom.reshape(len(invs), -1, 2 * n).all(axis=2)
            p = int(np.argmin(ok.all(axis=0)))
            raise DomainError(f"{invs[int(np.argmin(ok[:, p]))].name} "
                              "undefined at this point")
        return V

    return central_gradient(stacked, Y).swapaxes(0, -2)


def independence_rank(invs: Sequence[Invariant], y,
                      eps: float = 0.0) -> int | list[int]:
    """Numerical rank of the stacked finite-difference gradients: an int at a
    point y, a list of ints, one per point, for a (P, N) stack.

    A stack of up to 1024 points takes one `invariant_gradients` call, one
    row normalization and one stacked SVD; a longer one, each of its rows
    validated first, takes them per block of 1024 points, so its memory
    stays bounded.  Each point ranks as it ranks alone.  Rows are
    normalized to unit length before the SVD so families mixing scales
    measure functional rank rather than magnitude disparity; singular values
    above RANK_RTOL (1e-8) times the largest count toward the rank.
    """
    Y = np.asarray(y, dtype=float)
    if Y.ndim == 2 and len(Y) > _RANK_BLOCK:
        for row in Y:       # a bad row raises before any block is ranked
            as_state(row)
        return [r for i in range(0, len(Y), _RANK_BLOCK)
                for r in independence_rank(invs, Y[i:i + _RANK_BLOCK], eps)]
    G = invariant_gradients(invs, Y, eps)
    norms = np.linalg.norm(G, axis=-1, keepdims=True)
    np.divide(G, norms, out=G, where=norms > 1e-12)
    s = np.linalg.svd(G, compute_uv=False)
    return np.sum(s > RANK_RTOL * s[..., :1], axis=-1).tolist()


# --- defect order -----------------------------------------------------------

def defect_order(map_: DiscreteMap, candidate: Invariant, y0,
                 eps_list: Sequence[float]) -> float:
    """Order (in eps) of the candidate's per-unit-time one-step defect.

    For each eps the raw defect |F(map(y0, eps), eps) - F(y0, eps)| is divided
    by the time one application advances (scale * eps); the returned value is
    the least-squares log-log slope of that rate.  A flow integral under a
    second-order map rates O(eps^2); exact integrals of the map leave fewer than
    two raw defects above DEFECT_FLOOR (1e-14) and return math.inf.
    """
    eps_arr = np.asarray(list(eps_list), dtype=float)
    if eps_arr.size < 1 or np.any(eps_arr <= 0) or np.any(np.diff(eps_arr) >= 0):
        raise ParameterError("eps_list must be strictly decreasing and positive")
    y0 = as_state(y0, map_.dim)
    raw = np.empty(eps_arr.size)
    for idx, e in enumerate(eps_arr):
        vals, _, dom = evaluate([candidate], np.stack([map_.step(y0, e), y0]),
                                e)
        if not dom.all():
            raise DomainError(f"{candidate.name} undefined at this point")
        raw[idx] = abs(vals[0, 0] - vals[0, 1])
    keep = raw > DEFECT_FLOOR
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
    Returns (rows, slope); slope is None when one eps value is given.
    Raises ParameterError unless total_time is positive and finite, dt_ref
    > 0 gives a finite number of reference steps, eps_list is not empty and
    strictly decreases, each eps tiles the time and no step count exceeds
    flows.MAX_STEPS."""
    if len(eps_list) == 0:
        raise ParameterError("eps_list must list at least one eps")
    if not 0 < total_time < math.inf:
        raise ParameterError(
            f"total_time={total_time} must be positive and finite")
    if not (dt_ref > 0 and math.isfinite(total_time / dt_ref)):
        raise ParameterError(f"dt_ref={dt_ref} must be positive, with a "
                             "finite number of reference steps")
    if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise ParameterError("eps_list must be strictly decreasing")
    flow = (_REFERENCE_FLOWS[m.name]() if m.name in _REFERENCE_FLOWS
            else generalized_kovalevskaya(m.dim, 2.0))
    y0 = as_state(y0, m.dim).tolist()
    nref = check_step_count(max(1, round(total_time / dt_ref)),
                            f"dt_ref={dt_ref}")
    ref = integrate_reference(flow, y0, total_time, total_time / nref)
    target = ref.states[-1].tolist()
    rows = []
    for eps in eps_list:
        t = m.step_time(eps)
        n = total_time / t if t > 0 else 0
        k = round(n) if math.isfinite(n) else 0
        if k < 1 or abs(k * t - total_time) > 1e-9 * total_time:
            raise ParameterError(
                f"eps={eps} does not tile total time {total_time}")
        check_step_count(k, f"eps={eps}")
        y = y0
        e = float(eps)
        for _ in range(k):
            y = m.checked_step(y, e)
        rows.append((eps, max(abs(a - b) for a, b in zip(y, target))))
    slope = None
    if len(rows) >= 2:
        le = np.log([r[0] for r in rows])
        lv = np.log([max(r[1], 1e-300) for r in rows])
        slope = float(np.polyfit(le, lv, 1)[0])
    return rows, slope


# --- exact structural identities --------------------------------------------
#
# Each residual runs on the list of a state's coordinates, with integer
# constants and sums in index order; `verify_phi_functional_equation`
# validates its state with `as_state` first.  Every step goes through
# `DiscreteMap.checked_step`.  The residuals of the rational identities
# (`IDENTITIES` but phi-eq, sqrt-comp and engine, which take roots or a float
# solve) run unchanged on `Fraction`s, where a residual of exactly 0 at
# random rational points is a Schwartz-Zippel certificate.

def _phi_residual(N, y, eps, phi):
    if any(v <= 0 for v in y):
        raise DomainError("functional equation check needs positive coordinates")
    ynew = gen_hk(N).checked_step(y, eps)
    if any(v <= 0 for v in ynew):
        raise DomainError("image left the positive orthant")
    lhs = phi(ynew, eps) / phi(y, eps)
    rhs = (1 + eps * _total(ynew)) / (1 - eps * _total(y)) \
        * (math.prod(y) / math.prod(ynew)) ** (1 / (N - 2))
    return abs(lhs - rhs) / abs(rhs)


def verify_phi_functional_equation(N: int, y, eps: float, phi) -> float:
    """Relative residual of phi(ynew)/phi(y) =
    (1 + eps*s_new)/(1 - eps*s) * (prod y / prod ynew)^(1/(N-2)) under the
    bilinearized map; positive orthant only.  phi gets states as lists."""
    return _phi_residual(N, as_state(y, N).tolist(), eps, phi)


def phi_genhk3(j: int = 0):
    """1 / (1 - eps^2 (s - 2 y_j)^2)."""
    def phi(y, eps):
        A = _total(y) - 2 * y[j]
        return 1 / (1 - eps * eps * A * A)
    return phi


def phi_genhk4(partition: int = 0):
    """(1 - eps^2 (y_i + y_j - y_k - y_l)^2)^(-1/2)."""
    (i, j), (k, l) = PARTITIONS_4[partition]

    def phi(y, eps):
        diff = y[i] + y[j] - y[k] - y[l]
        return 1 / math.sqrt(1 - eps * eps * diff * diff)
    return phi


def phi_alt3(i: int = 0, j: int = 1):
    """1 / (1 - eps^2 y_i y_j)."""
    def phi(y, eps):
        return 1 / (1 - eps * eps * y[i] * y[j])
    return phi


def phi_alt4(partition: int = 0):
    """((1 - eps^2 y_i y_j)(1 - eps^2 y_k y_l))^(-1/2)."""
    (i, j), (k, l) = PARTITIONS_4[partition]

    def phi(y, eps):
        return 1 / math.sqrt((1 - eps * eps * y[i] * y[j])
                             * (1 - eps * eps * y[k] * y[l]))
    return phi


def _poly_n4_residual(y, eps):
    """Max over the pair partitions of D_i D_j - eps^2 y_i y_j (1+eps*y_k)^2
    (1+eps*y_l)^2 = (1 - eps^2 y_k y_l) D, over 1 + |D|; exact at N = 4 only."""
    D = _d_polynomial(y, eps)
    # D_m, with coordinate m left out
    Dm = [_d_polynomial([v for k, v in enumerate(y) if k != m], eps)
          for m in range(4)]
    return max(abs(Dm[i] * Dm[j] - eps * eps * y[i] * y[j]
                   * (1 + eps * y[k]) ** 2 * (1 + eps * y[l]) ** 2
                   - (1 - eps * eps * y[k] * y[l]) * D) / (1 + abs(D))
               for (i, j), (k, l) in PARTITIONS_4)


def _relation_qq_residual(map_, y, eps):
    """Max over i < j of |(ynew_i - ynew_j)/(ynew_i ynew_j) * (y_i y_j)/(y_i -
    y_j) - q| for `map_` gen-hk or alt-map, q = (1 - eps*s)/(1 + eps*s_new)
    for gen-hk and R(y, eps) for alt-map."""
    n = len(y)
    if any(v == 0 for v in y):
        raise DomainError("relation needs nonzero coordinates")
    if len(set(y)) < n:
        raise DomainError("relation needs distinct coordinates")
    ynew = map_.checked_step(y, eps)
    if map_.name == "gen-hk":
        rhs = (1 - eps * _total(y)) / (1 + eps * _total(ynew))
    else:
        rhs = _r_factor(y, eps)
    return max(abs((ynew[i] - ynew[j]) / (ynew[i] * ynew[j])
                   * (y[i] * y[j]) / (y[i] - y[j]) - rhs)
               for i in range(n) for j in range(i + 1, n))


def _gap(x, ref):
    # max|x - ref| / (1 + max|ref|) of two lists; NaN when ref is not finite
    if not all(map(math.isfinite, ref)):
        return math.nan
    return max(abs(a - b) for a, b in zip(x, ref)) / (1 + max(map(abs, ref)))


_PHI_EQ = {3: phi_genhk3(), 4: phi_genhk4()}


def _step_ratio_residual(y, eps):
    return max(_relation_qq_residual(gen_hk(len(y)), y, eps),
               _relation_qq_residual(alt_map(len(y)), y, eps))


def _r_product_residual(y, eps):
    p = math.prod([1 + eps * v for v in y])
    return abs(_r_factor(y, eps) * p - _d_polynomial(y, eps))


def _phi_eq_residual(y, eps):
    return _phi_residual(len(y), y, eps, _PHI_EQ[len(y)])


def _sqrt_comp_residual(y, eps):
    return max(_gap(half.checked_step(half.checked_step(y, eps), eps),
                    full.checked_step(y, eps))
               for half, full in ((cosine_law(), euler_hk()),
                                  (kov_sqrt(), kov_pullback())))


@functools.lru_cache(maxsize=32)
def _engine_system(n):
    return polarize(kovalevskaya_field(n))


def _engine_residual(y, eps):
    ref = hk_step(_engine_system(len(y)), y, eps).tolist()
    return _gap(gen_hk(len(y)).checked_step(y, eps), ref)


def _engine_block(Y, eps_list):
    # `_engine_residual` of each row of a block, the engine's steps of the
    # whole block solved in one call; a row's engine error is raised when
    # its trial is evaluated
    n = Y.shape[1]
    m = gen_hk(n)
    steps = hk_solve(_engine_system(n), Y, eps_list)
    return (functools.partial(_engine_trial, m, y, e, ref)
            for y, e, ref in zip(Y.tolist(), eps_list, steps))


def _engine_trial(m, y, eps, ref):
    if isinstance(ref, Exception):
        raise ref
    return _gap(m.checked_step(y, eps), ref.tolist())


def _per_trial(residual, Y, eps_list):
    # a scalar residual lifted to a block: one call per trial, made when the
    # battery evaluates that trial
    return (functools.partial(residual, y, e)
            for y, e in zip(Y.tolist(), eps_list))


# polynomial identities tolerate any eps; step-based ones draw it from a
# narrower range, the same at every N, and skip (under a drawn eps) only a
# trial whose step is singular (regularity below `SINGULAR_RTOL`) or whose
# residual is undefined: no strain test guards a trial
_POLY, _STEP = (0.01, 0.3), (0.01, 0.1)

#: name -> (residual(y, eps) on a sequence y of N numbers, range of the
#: per-trial eps draw, dimensions the identity holds at, or None for any N)
IDENTITIES = {
    "n4-poly": (_poly_n4_residual, _POLY, (4,)),
    "s-relations": (lambda y, eps: max(_s_relation_residuals(y, eps)),
                    _STEP, None),
    "r-reciprocity": (_r_reciprocity_residual, _STEP, None),
    "step-ratio": (_step_ratio_residual, _STEP, None),
    "d-sum": (lambda y, eps: abs(_total(_d_list(y, eps)) - 4), _POLY, (4,)),
    "r-product": (_r_product_residual, _POLY, None),
    "phi-eq": (_phi_eq_residual, (0.01, 0.05), (3, 4)),
    "sqrt-comp": (_sqrt_comp_residual, _STEP, (3,)),
    "engine": (_engine_residual, _STEP, None),
}

#: residual -> its block form, which takes a (rows, N) block of starts and
#: their eps and returns one thunk per trial; `identity_battery` lifts every
#: other residual with `_per_trial`
_BLOCK_RESIDUALS = {_engine_residual: _engine_block}


def identity_battery(name: str, n: int, trials: int, seed: int,
                     eps: float | None = None) -> float:
    """Worst residual of identity `name` over `trials` seeded starts at
    dimension n, or at the identity's only dimension.  Each trial's eps is
    drawn from the identity's range, on a stream apart from the starts',
    unless `eps` fixes it.  A trial whose residual is undefined (a singular
    or out-of-domain spot, a float overflow or zero division) or not finite
    is skipped under a drawn eps; under a fixed one it raises DomainError or
    SingularStepError, the first failing trial's.  Raises DimensionError for
    a dimension the identity does not hold at (below 3 for any-N
    identities), and ParameterError for trials < 1 or above
    `flows.MAX_STEPS`, before any draw, and when fewer than half the trials
    were evaluable.

    The trials run one block of `random_starts`' draws at a time, with that
    block's eps drawn in one call, so a battery holds one block: the starts,
    the eps and the result are those of drawing them all at once.  The
    engine identity solves a block's steps in one `hk_solve` call; every
    other residual runs once per trial.  Each trial is evaluated and judged
    in trial order."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if trials > MAX_STEPS:
        raise ParameterError(f"trials must be <= MAX_STEPS = {MAX_STEPS:.0e}, "
                             f"got {trials}")
    residual, (lo, hi), dims = IDENTITIES[name]
    if dims is not None and len(dims) == 1:
        n = dims[0]
    elif dims is not None and n not in dims:
        raise DimensionError(f"{name} is defined for N = "
                             f"{' or '.join(map(str, dims))}, not N = {n}")
    elif n < 3:
        raise DimensionError(f"{name} needs N >= 3, not N = {n}")
    block = _BLOCK_RESIDUALS.get(residual,
                                 functools.partial(_per_trial, residual))
    rng = np.random.default_rng([seed, 1])
    worst = 0.0
    evaluated = 0
    starts = _start_blocks(trials, n, seed)
    for Y in starts:
        eps_list = ([eps] * len(Y) if eps is not None
                    else rng.uniform(lo, hi, len(Y)).tolist())
        for e, trial in zip(eps_list, block(Y, eps_list)):
            try:
                try:
                    r = trial()
                except OverflowError as exc:
                    raise DomainError(f"{name}: a float overflows at "
                                      f"eps={e:g}") from exc
                except ZeroDivisionError as exc:
                    raise DomainError(f"{name}: a float division by zero "
                                      f"at eps={e:g}") from exc
                if not math.isfinite(r):
                    raise DomainError(f"{name}: residual {r} at eps={e:g}")
            except (DomainError, SingularStepError):
                if eps is not None:
                    # a start the later draws fail to find is reported
                    # first, as when every start was drawn up front
                    for _ in starts:
                        pass
                    raise     # an explicit eps that aborts is a real abort
                continue      # drawn eps hit a singular/out-of-domain spot
            worst = max(worst, r)
            evaluated += 1
    if evaluated < max(1, trials // 2):
        raise ParameterError(
            f"identity {name!r}: only {evaluated}/{trials} trials were "
            "evaluable; tighten the eps range")
    return worst


# --- serialization ----------------------------------------------------------

DRIFT_CSV_HEADER = "map,invariant,eps,steps,max_rel_drift,first_blowup_step"


#: one report as a CSV row; '%.17g' spells a float as `core.fmt17` does
_DRIFT_CSV_ROW = "%s,%s,%.17g,%s,%.17g,%s"

#: one report as json.dumps writes its dict
_DRIFT_JSON_ROW = ('{"map": %s, "invariant": %s, "eps": %s, "steps": %s, '
                   '"max_rel_drift": %s, "first_blowup_step": %s}')


def drift_to_csv(reports: Sequence[DriftReport]) -> str:
    """The reports as CSV under DRIFT_CSV_HEADER, each row by one template:
    eps and the drift in 17 significant digits (`core.fmt17`, `nan` and
    `inf` included), an empty first_blowup_step for a whole window."""
    rows = [_DRIFT_CSV_ROW % (
                r.map, r.invariant, r.eps, r.steps, r.max_rel_drift,
                "" if r.first_blowup_step is None else r.first_blowup_step)
            for r in reports]
    return "\n".join([DRIFT_CSV_HEADER] + rows) + "\n"


def drift_to_json(reports: Sequence[DriftReport]) -> str:
    """The reports as json.dumps writes {"status": "ok", "reports": [...]},
    one dict of the report's fields each, each report by one template.  An
    unevaluable pair carries a NaN drift, which JSON gets as null (strict
    JSON has no NaN literal); any other non-finite float is spelled as
    json.dumps spells it."""
    rows = [_DRIFT_JSON_ROW % (
                encode_basestring_ascii(r.map),
                encode_basestring_ascii(r.invariant), json_number(r.eps),
                json_number(r.steps),
                "null" if r.max_rel_drift != r.max_rel_drift
                else json_number(r.max_rel_drift),
                json_number(r.first_blowup_step))
            for r in reports]
    return '{"status": "ok", "reports": [%s]}' % ", ".join(rows)
