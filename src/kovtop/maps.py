"""Closed-form discrete maps with declared step scales, plus the scalar
machinery (R, D, d_i, S) entering their structural identities.

Each `DiscreteMap` carries as `kernel` its step, compiled by
`kernels.compile_map` from the map's emitter, with the guarded orbit loop
attached as `kernel.orbit`.
Every map here is implemented independently of the generic linear-solve
engine in `hk_engine`; agreement between the two routes is part of the test
suite, not an assumption.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .core import MapStepScale, as_state, lookup
from .errors import DimensionError, DomainError, SingularStepError
from .flows import check_step_count
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

    `kernel` is the step compiled from the map's emitter, which
    `checked_step` runs; `orbit` runs its guarded loop `kernel.orbit`.
    `checked_step` is the list-level step with its domain and singularity
    checks, and `stepper` the same step at one eps with the kernel binding
    picked once; `step` validates a state and wraps it.
    """

    name: str
    dim: int
    scale: MapStepScale
    kernel: Callable
    even_invariants: bool = False

    def step_time(self, eps: float) -> float:
        """Continuous time advanced by one application."""
        return self.scale.factor * eps

    def step(self, y, eps: float) -> np.ndarray:
        y = as_state(y, self.dim)
        return np.array(self.checked_step(y.tolist(), float(eps)), dtype=float)

    def checked_step(self, y: list, eps: float) -> list:
        """One step of the list y of `dim` finite floats at the float eps
        (`Fraction`s step exactly, except through the cosine-law map).

        Raises DomainError when y is outside the map's real domain and
        SingularStepError when a denominator vanishes or the result is not
        finite."""
        if self.name == "cosine":
            for j, v in enumerate(y):
                if eps * eps * v * v >= 1.0:
                    raise DomainError(
                        f"cosine-law map needs eps^2*x_j^2 < 1; violated at "
                        f"index {j + 1}")
        out, reg = kernels.map_step(self.kernel, y, eps)
        if reg < SINGULAR_RTOL or not all(map(math.isfinite, out)):
            raise SingularStepError(
                f"{self.name}: {self._singular_detail(y, eps)}",
                state=np.array(y), eps=eps)
        return out

    def stepper(self, y: list, eps: float) -> Callable[[list], list]:
        """`checked_step` at this eps, as a function of the state, for
        states of y's number type.  The kernel binding is picked once, by
        `kernels.map_step`'s rule on y and eps.  A state whose step passes
        `checked_step`'s test gets its new list from that binding; any other
        goes to `checked_step`, which raises there what it raises."""
        kernel = self.kernel.floats if self.kernel.on_floats(y, eps) \
            else self.kernel
        checked_step = self.checked_step

        def step(z: list) -> list:
            try:
                out, reg = kernel(z, eps)
            except ZeroDivisionError:
                return checked_step(z, eps)
            if reg < SINGULAR_RTOL or not all(map(math.isfinite, out)):
                return checked_step(z, eps)
            return out

        return step

    def orbit(self, y0, eps: float, steps: int, guards: OrbitGuards = RAW_GUARDS
              ) -> tuple[np.ndarray, int, str]:
        """Iterate `steps` times under the given guards; returns (states,
        last_step, reason) as `kernels.map_orbit` does.  Steps outside
        0..`flows.MAX_STEPS` raise ParameterError before any step
        (`flows.check_step_count`)."""
        y0 = as_state(y0, self.dim)
        check_step_count(steps, f"steps={steps}")
        return kernels.map_orbit(
            self.kernel, y0.tolist(), float(eps), steps, guards.strain,
            guards.resolution, guards.coincidence, self.even_invariants)

    def _singular_detail(self, y, eps) -> str:
        if self.name == "gen-hk":
            d, S = _d_factors(y, eps)
            i = int(np.argmin(np.abs(d)))
            # a vanishing d_i makes S non-finite (y_i/d_i is inf or NaN)
            if abs(d[i]) <= abs(S) or not math.isfinite(S):
                return f"denominator d_{i + 1} vanished"
            return "denominator S vanished"
        return "step denominator vanished"


# One emitter per map writes its step for `kernels.compile_map`: the new
# state into `outs`, then the regularity into `reg`, in the operations of
# the closed form; an orbit computes that regularity only under a strain
# guard.  The cosine-law step reads its regularity for its domain test, so
# it writes it first, and every orbit computes it.  Each map is built once,
# gen-hk and alt-map once per N, since the identity residuals look their
# maps up per trial.


def _emit_euler_hk(ins, outs, stop):
    x1, x2, x3 = ins
    lines = [f"q = {x1} * {x1} + {x2} * {x2} + {x3} * {x3}",
             f"den = 1 - eps * eps * q - 2 * eps * eps * eps * {x1} * {x2} * {x3}"]
    for out, (u, v, w) in zip(outs, ((x1, x2, x3), (x2, x3, x1), (x3, x1, x2))):
        lines.append(f"{out} = ({u} + 2 * eps * {v} * {w} "
                     f"+ eps * eps * {u} * (q - 2 * {u} * {u})) / den")
    return lines + ["reg = abs(den)"]


def _emit_cosine(ins, outs, stop):
    # regularity is the signed minimum of 1 - eps^2 x_j^2: <= 0 (or NaN, when
    # eps^2 overflows) means the square roots leave the real domain
    x0, x1, x2 = ins
    return ([f"w{j} = 1 - eps * eps * {x} * {x}" for j, x in enumerate(ins)]
            + ["reg = min(w0, min(w1, w2))", "if not reg > 0:", f"    {stop}"]
            + [f"s{j} = sqrt(w{j})" for j in range(3)]
            + [f"{outs[0]} = ({x0} + eps * {x1} * {x2}) / (s1 * s2)",
               f"{outs[1]} = ({x1} + eps * {x2} * {x0}) / (s2 * s0)",
               f"{outs[2]} = ({x2} + eps * {x0} * {x1}) / (s0 * s1)"])


def _emit_kov_sqrt(ins, outs, stop):
    # c_i = 1 + eps*y_i, g_i = 1 - eps^2 y_j y_k
    y0, y1, y2 = ins
    return ([f"c{i} = 1 + eps * {v}" for i, v in enumerate(ins)]
            + [f"g0 = 1 - eps * eps * {y1} * {y2}",
               f"g1 = 1 - eps * eps * {y2} * {y0}",
               f"g2 = 1 - eps * eps * {y0} * {y1}",
               f"{outs[0]} = {y0} * c1 * c2 / (c0 * g0)",
               f"{outs[1]} = {y1} * c2 * c0 / (c1 * g1)",
               f"{outs[2]} = {y2} * c0 * c1 / (c2 * g2)",
               *kernels.emit_min_abs("reg", None,
                                     ["c0", "g0", "c1", "g1", "c2", "g2"])])


def _emit_kov_pullback(ins, outs, stop):
    y0, y1, y2 = ins
    return [f"e2 = {y0} * {y1} + {y1} * {y2} + {y2} * {y0}",
            f"e3 = {y0} * {y1} * {y2}",
            "glob = 1 - eps * eps * e2 - 2 * eps * eps * eps * e3",
            f"f0 = 1 + 2 * eps * {y0} + eps * eps * (e2 - 2 * {y1} * {y2})",
            f"f1 = 1 + 2 * eps * {y1} + eps * eps * (e2 - 2 * {y2} * {y0})",
            f"f2 = 1 + 2 * eps * {y2} + eps * eps * (e2 - 2 * {y0} * {y1})",
            f"{outs[0]} = {y0} * f1 * f2 / (f0 * glob)",
            f"{outs[1]} = {y1} * f2 * f0 / (f1 * glob)",
            f"{outs[2]} = {y2} * f0 * f1 / (f2 * glob)",
            *kernels.emit_min_abs("reg", None, ["glob", "f0", "f1", "f2"])]


def _emit_gen_hk(ins, outs, stop):
    # s = sum y_j, d_i = 1 - eps*(-4*y_i + s), S = 1 - eps * sum y_j/d_j,
    # each sum from the integer 0 in index order; regularity over the d_i
    # and S, from inf
    n = len(ins)
    d = [f"d{i}" for i in range(n)]
    return (kernels.emit_fold("s", "0", "+", ins)
            + [f"{di} = 1 - eps * (-4 * {v} + s)" for di, v in zip(d, ins)]
            + kernels.emit_fold("t", "0", "+",
                                [f"{v} / {di}" for v, di in zip(ins, d)])
            + ["S = 1 - eps * t"]
            + [f"{o} = {v} / (S * {di})" for o, v, di in zip(outs, ins, d)]
            + kernels.emit_min_abs("reg", "inf", d + ["S"]))


def _emit_alt(ins, outs, stop):
    # u_i = y_i/(1 + eps*y_i), t = sum u_j, ynew_i = u_i/(1 - eps*(t - u_i));
    # regularity over the 1 + eps*y_i, then the R_i, from inf
    n = len(ins)
    w, u, r = ([f"{c}{i}" for i in range(n)] for c in "wur")
    return ([f"{wi} = 1 + eps * {v}" for wi, v in zip(w, ins)]
            + [f"{ui} = {v} / {wi}" for ui, v, wi in zip(u, ins, w)]
            + kernels.emit_fold("t", "0", "+", u)
            + [f"{ri} = 1 - eps * (t - {ui})" for ri, ui in zip(r, u)]
            + [f"{o} = {ui} / {ri}" for o, ui, ri in zip(outs, u, r)]
            + kernels.emit_min_abs("reg", "inf", w + r))


@functools.cache
def euler_hk() -> DiscreteMap:
    """Explicit bilinearized Euler top (one application advances 2*eps)."""
    return DiscreteMap("euler-hk", 3, MapStepScale.TWO_EPS,
                       kernels.compile_map(_emit_euler_hk, 3),
                       even_invariants=True)


@functools.cache
def cosine_law() -> DiscreteMap:
    """Spherical-cosine-law step; its second iterate is euler_hk.  Real only
    on eps^2 x_j^2 < 1, principal square roots.  The roots make it the one
    map whose kernel has no exact (Fraction) step."""
    return DiscreteMap("cosine", 3, MapStepScale.EPS,
                       kernels.compile_map(_emit_cosine, 3, sqrt=math.sqrt),
                       even_invariants=True)


@functools.cache
def kov_sqrt() -> DiscreteMap:
    """Birational square-root map: its second iterate is kov_pullback."""
    return DiscreteMap("kov-sqrt", 3, MapStepScale.EPS,
                       kernels.compile_map(_emit_kov_sqrt, 3))


@functools.cache
def kov_pullback() -> DiscreteMap:
    """Pull-back of euler_hk under y_i = x_j*x_k/x_i (advances 2*eps)."""
    return DiscreteMap("kov-pullback", 3, MapStepScale.TWO_EPS,
                       kernels.compile_map(_emit_kov_pullback, 3))


@functools.lru_cache(maxsize=32)
def gen_hk(N: int) -> DiscreteMap:
    """Explicit bilinearized generalized Kovalevskaya map
    ynew_i = y_i / (S * d_i), any N >= 3."""
    if N < 3:
        raise DimensionError("gen-hk needs N >= 3")
    return DiscreteMap("gen-hk", N, MapStepScale.TWO_EPS,
                       kernels.compile_map(_emit_gen_hk, N))


@functools.lru_cache(maxsize=32)
def alt_map(N: int) -> DiscreteMap:
    """Alternative discretization ynew_i = [y_i/(1+eps*y_i)] / R_i; for N = 3
    it coincides with kov_sqrt."""
    if N < 3:
        raise DimensionError("alt-map needs N >= 3")
    return DiscreteMap("alt-map", N, MapStepScale.EPS,
                       kernels.compile_map(_emit_alt, N))


_FIXED_DIM = {"euler-hk": euler_hk, "cosine": cosine_law,
              "kov-sqrt": kov_sqrt, "kov-pullback": kov_pullback}
_ANY_DIM = {"gen-hk": gen_hk, "alt-map": alt_map}

MAP_NAMES = tuple(_FIXED_DIM) + tuple(_ANY_DIM)


def get_map(name: str, dim: int | None = None) -> DiscreteMap:
    """Look up a map by CLI name (`core.lookup`): gen-hk and alt-map require
    `dim`, the others are three-dimensional."""
    return lookup("map", name, dim, _FIXED_DIM, _ANY_DIM)


# --- scalar machinery -------------------------------------------------------
#
# R = 1 - eps * sum_j y_j/(1 + eps*y_j), D = 1 - sum_{k=2..N} eps^k (k-1) e_k
# = R * prod(1 + eps*y_j), d_i = 1 - eps*(-4*y_i + s), S = 1 - eps * sum y_j/d_j.
# Each core takes a sequence of numbers, uses integer constants and sums over
# coordinates in index order, as the kernels do, so it gives the floats
# numpy's reductions gave for N <= 7 and runs exactly on `fractions.Fraction`s.


def _total(y):
    """Sum of y in index order, from the integer 0."""
    t = 0
    for v in y:
        t += v
    return t


def _product(y):
    """Product of y in index order, from the integer 1."""
    p = 1
    for v in y:
        p *= v
    return p


def _d_list(y, eps):
    # d_i = 1 - eps*(-4*y_i + s), in the operations of the gen-hk kernel
    s = _total(y)
    return [1 - eps * (-4 * v + s) for v in y]


def _d_factors(y, eps):
    """(d, S) of the sequence y, as lists and a number.  A vanishing d_i
    gives the IEEE value of y_i/d_i (a signed infinity, or NaN for 0/0), so
    S comes out non-finite, as it did on float64 arrays."""
    d = _d_list(y, eps)
    t = 0
    for v, dv in zip(y, d):
        if dv:
            t += v / dv
        else:
            t += math.copysign(math.inf, v) * math.copysign(1, dv) if v \
                else math.nan
    return d, 1 - eps * t


def _r_factor(y, eps):
    t = 0
    for v in y:
        w = 1 + eps * v
        if abs(w) < 1e-15 * (1 + abs(eps * v)):
            raise DomainError("r_factor undefined: some 1 + eps*y_j vanishes")
        t += v / w
    return 1 - eps * t


def _d_polynomial(y, eps):
    e = kernels.esp_all(y)
    acc = 1
    for k in range(2, len(y) + 1):
        acc -= eps ** k * (k - 1) * e[k]
    return acc


def _r_reciprocity_residual(y, eps):
    """|R(y, eps) * R(ynew, -eps) - 1| for the alternative map."""
    ynew = alt_map(len(y)).checked_step(y, eps)
    return abs(_r_factor(y, eps) * _r_factor(ynew, -eps) - 1)


def _s_relation_residuals(y, eps):
    """|S(y, eps)(1 + eps*s_new) - 1| and |S(ynew, -eps)(1 - eps*s) - 1|."""
    ynew = gen_hk(len(y)).checked_step(y, eps)
    s = _total(y)
    s_new = _total(ynew)
    _, S_fwd = _d_factors(y, eps)
    _, S_bwd = _d_factors(ynew, -eps)
    return (abs(S_fwd * (1 + eps * s_new) - 1),
            abs(S_bwd * (1 - eps * s) - 1))
