"""Continuous systems and the fixed-step RK4 reference integrator.

The reference integrator is the convergence oracle for every discrete map in
the package; it is deliberately fixed-step (deterministic, reproducible) with
accuracy controlled by dt alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .core import QuadraticField, TrajectoryRecord, as_state, lookup
from .errors import BlowupError, DimensionError, ParameterError


#: the largest flow dimension: a flow's RK4 orbit is compiled from source that
#: grows with N, as N^2 for the generalized Euler flows
MAX_FLOW_DIM = 300


def _compile(emit, n, **consts):
    # kernels.compile_flow, within the dimensions a flow may have
    if not 1 <= n <= MAX_FLOW_DIM:
        raise DimensionError(f"a flow's dimension must be 1..MAX_FLOW_DIM = "
                             f"{MAX_FLOW_DIM}, got {n}")
    return kernels.compile_flow(emit, n, **consts)


@dataclass(frozen=True)
class FlowSpec:
    """A named right-hand side dy/dt = rhs(y) and its compiled RK4 orbit.

    `rhs` maps a sequence of `dim` numbers to a list of `dim` numbers;
    `orbit` is `rhs.orbit` of `kernels.compile_flow`, which `rk4_states`
    runs (its float binding `orbit.floats` on floats).  The shipped flows compile `rhs` and its orbit from one emitter,
    so the two compute it with the same operations; any other `rhs` gets an
    orbit that calls it at each stage.  `dim` is at most MAX_FLOW_DIM.
    Calling the spec validates an array state and returns a float64 array.
    """

    name: str
    dim: int
    rhs: Callable[[Sequence[float]], list]
    orbit: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        orbit = getattr(self.rhs, "orbit", None)
        if orbit is None:
            orbit = _compile(_emit_call, self.dim, rhs=self.rhs).orbit
        object.__setattr__(self, "orbit", orbit)

    def __call__(self, y) -> np.ndarray:
        return np.array(self.rhs(as_state(y, self.dim).tolist()), dtype=float)


def _emit_call(ins, outs):
    # any right-hand side: call it on the stage values
    return [f"{', '.join(outs)}, = rhs([{', '.join(ins)}])"]


def _emit_e1_only(ins, outs):
    """s = c1*e_1 by the additions esp_all makes for e_1, then
    out_i = y_i(s - alpha*y_i): the bits of `kernels._rhs_scaled_quadratic`
    with s_coeffs = [c1, 0, ..., 0].  esp_all adds y_i*e_0 with e_0 = 1, and
    y_i*1 is y_i on floats, `Fraction`s and `mpf`s at working precision, so
    the fold adds the y_i themselves; its leading 0 + stays, as it gives an
    all-zero sum its sign."""
    return (kernels.emit_fold("e1", "0.0", "+", list(ins))
            + ["s = 0.0 + c1 * e1"]
            + [f"{k} = {v} * (s - alpha * {v})" for v, k in zip(ins, outs)])


def _emit_product_complement(ins, outs):
    """out_i = x_0*...*x_{i-1}*x_{i+1}*...*x_{N-1}, multiplied left to
    right, the prefix products q_i = x_0*...*x_{i-1} shared between outputs.
    A product starts from its first factor, not from 1 * it, which returns
    that factor on every number type the kernels run on; so q_1 is x_0
    itself.  N >= 2."""
    n = len(ins)
    heads = [None, ins[0]] + [f"q{i}" for i in range(2, n)]
    lines = [f"{heads[i + 1]} = {heads[i]} * {ins[i]}" for i in range(1, n - 1)]
    for i, out in enumerate(outs):
        head, rest = (heads[i], ins[i + 1:]) if i else (ins[1], ins[2:])
        lines += kernels.emit_fold(out, head, "*", rest)
    return lines


def generalized_kovalevskaya(N: int, alpha: float = 2.0,
                             s_coeffs: Sequence[float] | None = None) -> FlowSpec:
    """dy_i/dt = y_i(-alpha*y_i + s) in N variables.

    By default s = y_1 + ... + y_N.  Passing `s_coeffs` replaces s by the
    symmetric polynomial sum_k s_coeffs[k-1]*e_k(y); the conserved-ratio family
    H_ij/H_kl survives any such choice.  alpha == N is rejected because the
    power-law integral family divides by N - alpha.

    A zero coefficient contributes nothing to s, so an e_k that overflows
    at a zero coefficient leaves s finite.  When only e_1 carries a
    coefficient (the default), s = c_1*e_1 is emitted inline at each RK4
    stage; any other s is called there.
    """
    if N < 3:
        raise DimensionError("generalized Kovalevskaya flow needs N >= 3")
    if alpha == N:
        raise ParameterError(f"alpha must differ from N (got alpha = N = {N})")
    if s_coeffs is None:
        sc = [1.0] + [0.0] * (N - 1)
    else:
        sc = [float(c) for c in s_coeffs]
        if len(sc) != N:
            raise ParameterError("s_coeffs must list one coefficient per e_1..e_N")

    # emitted only for s = c_1*e_1 with c_1 != 0; the zero s skips 0*e_1 too
    name = gen_kov_name(N, alpha, s_coeffs is not None)
    if any(sc[1:]) or not sc[0]:
        return FlowSpec(name=name, dim=N, rhs=partial(
            kernels._rhs_scaled_quadratic, alpha=alpha, s_coeffs=sc))
    return FlowSpec(name=name, dim=N,
                    rhs=_compile(_emit_e1_only, N, alpha=alpha, c1=sc[0]))


def _alpha_text(alpha: float) -> str:
    # alpha in six digits, or whole where those round it, so that no two
    # alphas share a name and with it a claim
    text = f"{alpha:g}"
    return text if float(text) == alpha else repr(float(alpha))


def gen_kov_name(N: int, alpha: float = 2.0, custom_s: bool = False) -> str:
    """The name of the generalized Kovalevskaya flow at (N, alpha), with the
    default s or a custom one; an invariant family claimed for one such
    flow only names it by this."""
    return (f"gen-kov(N={N},alpha={_alpha_text(alpha)}"
            f"{',custom-s' if custom_s else ''})")


def kovalevskaya3() -> FlowSpec:
    """The three-dimensional flow dy_i/dt = y_i(-y_i + y_j + y_k)."""
    return FlowSpec(name="kov3", dim=3,
                    rhs=generalized_kovalevskaya(3, 2.0).rhs)


def generalized_euler(N: int) -> FlowSpec:
    """dx_i/dt = prod_{j != i} x_j.  Degree N-1, so only the N = 3 case is a
    quadratic field."""
    if N < 3:
        raise DimensionError("generalized Euler flow needs N >= 3")

    return FlowSpec(name=f"gen-euler(N={N})", dim=N,
                    rhs=_compile(_emit_product_complement, N))


def euler_top3() -> FlowSpec:
    """The Euler top dx_i/dt = x_j x_k."""
    return FlowSpec(name="euler3", dim=3, rhs=generalized_euler(3).rhs)


FLOW_NAMES = ("kov3", "euler3", "gen-kov", "gen-euler")


def get_flow(name: str, dim: int | None = None, alpha: float = 2.0) -> FlowSpec:
    """Look up a flow by CLI name (`core.lookup`), as `maps.get_map` looks up
    a map: gen-kov and gen-euler require `dim`, kov3 and euler3 are
    three-dimensional.  `alpha` reaches gen-kov only."""
    return lookup("flow", name, dim,
                  {"kov3": kovalevskaya3, "euler3": euler_top3},
                  {"gen-kov": partial(generalized_kovalevskaya, alpha=alpha),
                   "gen-euler": generalized_euler})


def quadratic_flow(field: QuadraticField) -> FlowSpec:
    """The flow "quadratic", dy/dt = field(y), a sum over `field.terms`."""
    return FlowSpec(name="quadratic", dim=field.dim,
                    rhs=partial(kernels._rhs_quadratic_field, field.terms))


def kovalevskaya_field(N: int = 3, alpha: float = 2.0) -> QuadraticField:
    """Coefficient tensor of the generalized Kovalevskaya flow: the monomial
    y_i^2 carries 1 - alpha in row i, every mixed y_i*y_j carries 1."""
    terms: dict[tuple[int, int, int], float] = {}
    for i in range(N):
        terms[(i, i, i)] = 1.0 - alpha
        for j in range(N):
            if j != i:
                terms[(i, i, j)] = 1.0
    return QuadraticField.from_terms(N, terms)


def euler_field() -> QuadraticField:
    """Coefficient tensor of the Euler top."""
    return QuadraticField.from_terms(3, {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0})


#: the most steps an orbit may take, given or derived from a time span, and
#: the most starts or trials one call may draw (`invariants.random_starts`,
#: `invariants.identity_battery`); a larger count is refused before any work
MAX_STEPS = 10**7


def check_step_count(n: int, what: str) -> int:
    """n, or ParameterError when the step count n that `what` gives is
    negative or exceeds MAX_STEPS; every orbit checks its count by this
    before its first step."""
    if n < 0:
        raise ParameterError("steps must be nonnegative")
    if n > MAX_STEPS:
        # exact, or short where it is too far above the bound to read as it
        shown = n if n < 1000 * MAX_STEPS else f"{n:.3g}"
        raise ParameterError(f"{what} gives {shown} steps, more than "
                             f"MAX_STEPS = {MAX_STEPS:.0e}")
    return n


def _steps_for(t_end: float, dt: float) -> int:
    if dt <= 0:
        raise ParameterError("dt must be positive")
    if t_end < 0:
        raise ParameterError("t_end must be nonnegative")
    if not np.isfinite(t_end / dt):
        raise ParameterError(f"t_end/dt must be finite, got {t_end}/{dt}")
    n = check_step_count(round(t_end / dt), f"t_end/dt = {t_end}/{dt}")
    if abs(n * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ParameterError(f"dt={dt} does not divide t_end={t_end}")
    return n


def integrate_reference(flow: FlowSpec, y0, t_end: float, dt: float) -> TrajectoryRecord:
    """Fixed-step RK4 trajectory sampled every step.

    Raises BlowupError (carrying the last valid time) if the state leaves the
    finite region |y_i| <= kernels.BLOWUP_CAP (1e12), or if the right-hand
    side divides by zero; these flows have finite-time poles, so the hard cap
    is mandatory.
    """
    y0 = as_state(y0, flow.dim)
    nsteps = _steps_for(t_end, dt)
    traj, end, why = rk4_states(flow, y0, dt, nsteps)
    if end < nsteps:
        what = "divided by zero" if why == "singular" else "left the finite region"
        raise BlowupError(
            f"trajectory of {flow.name} {what} at t = {(end + 1) * dt:g}",
            last_time=end * dt, last_state=traj[end])
    times = dt * np.arange(nsteps + 1)
    return TrajectoryRecord(system=flow.name, times=times, states=traj)


def rk4_states(flow: FlowSpec, y0, dt: float,
               nsteps: int) -> tuple[np.ndarray, int, str]:
    """Non-raising RK4 iteration used by the drift harness: returns
    (states, last_step, reason) as `kernels.rk4_orbit` does, last_step <
    nsteps past kernels.BLOWUP_CAP.  Steps outside 0..MAX_STEPS raise
    ParameterError before any step (`check_step_count`), as in
    `maps.DiscreteMap.orbit`."""
    y0 = as_state(y0, flow.dim)
    check_step_count(nsteps, f"steps={nsteps}")
    return kernels.rk4_orbit(flow.orbit, y0.tolist(), float(dt), nsteps)


def verify_hyperelliptic_relation(N: int, traj: TrajectoryRecord) -> float:
    """Max residual of (dx_1/dt)^2 = prod_{j=2..N}(x_1^2 + E_j1) along a
    generalized-Euler trajectory, with E_j1 = x_j^2 - x_1^2 frozen at the
    initial state.  Residuals are normalized by 1 + |product|."""
    if traj.dim != N:
        raise DimensionError("trajectory dimension does not match N")
    rhs = generalized_euler(N).rhs
    x0 = traj.states[0]
    E = x0[1:] ** 2 - x0[0] ** 2
    worst = 0.0
    for x in traj.states:
        xdot1 = float(rhs(x)[0])
        prod = float(np.prod(x[0] ** 2 + E))
        worst = max(worst, abs(xdot1 * xdot1 - prod) / (1.0 + abs(prod)))
    return worst
