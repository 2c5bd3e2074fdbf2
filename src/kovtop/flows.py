"""Continuous systems and the fixed-step RK4 reference integrator.

The reference integrator is the convergence oracle for every discrete map in
the package; it is deliberately fixed-step (deterministic, reproducible) with
accuracy controlled by dt alone.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .core import QuadraticField, TrajectoryRecord, as_state
from .errors import BlowupError, DimensionError, ParameterError


@dataclass(frozen=True)
class FlowSpec:
    """A named right-hand side dy/dt = rhs(y).

    `rhs` maps a sequence of `dim` numbers to a list of `dim` numbers; the
    RK4 kernel calls it directly on lists of Python floats.  Calling the spec
    validates an array state and returns a float64 array.
    """

    name: str
    dim: int
    rhs: Callable[[Sequence[float]], list]

    def __call__(self, y) -> np.ndarray:
        return np.array(self.rhs(as_state(y, self.dim).tolist()), dtype=float)


def generalized_kovalevskaya(N: int, alpha: float = 2.0,
                             s_coeffs: Sequence[float] | None = None) -> FlowSpec:
    """dy_i/dt = y_i(-alpha*y_i + s) in N variables.

    By default s = y_1 + ... + y_N.  Passing `s_coeffs` replaces s by the
    symmetric polynomial sum_k s_coeffs[k-1]*e_k(y); the conserved-ratio family
    H_ij/H_kl survives any such choice.  alpha == N is rejected because the
    power-law integral family divides by N - alpha.

    When only e_1 carries a coefficient (the default), the right-hand side
    skips e_2..e_N while every |y_i| <= B_N = 10^(300/N) - 1, and gives the
    same numbers as the full sum.  Below that bound every e_k and every
    partial sum of `kernels.esp_all` is at most (1 + B_N)^N = 1e300, so each
    0*e_k term is a signed zero, and adding it leaves s unchanged: s starts
    from the integer 0 and is never -0.0.  A coordinate above the bound, or
    a NaN, takes the full sum, whose overflowing e_k can make s NaN.
    """
    if N < 3:
        raise DimensionError("generalized Kovalevskaya flow needs N >= 3")
    if alpha == N:
        raise ParameterError(f"alpha must differ from N (got alpha = N = {N})")
    if s_coeffs is None:
        sc = [1.0] + [0.0] * (N - 1)
        name = f"gen-kov(N={N},alpha={alpha:g})"
    else:
        sc = [float(c) for c in s_coeffs]
        if len(sc) != N:
            raise ParameterError("s_coeffs must list one coefficient per e_1..e_N")
        name = f"gen-kov(N={N},alpha={alpha:g},custom-s)"

    if any(sc[1:]):
        def rhs(y):
            return kernels._rhs_scaled_quadratic(y, alpha, sc)
    else:
        c1 = sc[0]
        bound = 10.0 ** (300 / N) - 1

        def rhs(y):
            # e_1 in the operations esp_all makes: e_1 += y_i * e_0, e_0 = 1
            e1 = 0
            for v in y:
                if not abs(v) <= bound:
                    return kernels._rhs_scaled_quadratic(y, alpha, sc)
                e1 += v * 1
            s = 0 + c1 * e1
            return [v * (s - alpha * v) for v in y]

    return FlowSpec(name=name, dim=N, rhs=rhs)


def kovalevskaya3() -> FlowSpec:
    """The three-dimensional flow dy_i/dt = y_i(-y_i + y_j + y_k)."""
    return replace(generalized_kovalevskaya(3, 2.0), name="kov3")


def generalized_euler(N: int) -> FlowSpec:
    """dx_i/dt = prod_{j != i} x_j.  Degree N-1, so only the N = 3 case is a
    quadratic field."""
    if N < 3:
        raise DimensionError("generalized Euler flow needs N >= 3")

    return FlowSpec(name=f"gen-euler(N={N})", dim=N,
                    rhs=kernels._rhs_product_complement)


def euler_top3() -> FlowSpec:
    """The Euler top dx_i/dt = x_j x_k."""
    return replace(generalized_euler(3), name="euler3")


def quadratic_flow(field: QuadraticField) -> FlowSpec:
    """The flow "quadratic", dy/dt = field(y), of a quadratic field tensor."""
    coeffs = field.coeffs.tolist()

    def rhs(y):
        return kernels._rhs_quadratic_field(coeffs, y)

    return FlowSpec(name="quadratic", dim=field.dim, rhs=rhs)


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


#: the most steps a step count derived from a time span may ask for
MAX_STEPS = 10**7


def check_step_count(n: int, what: str) -> int:
    """n, or ParameterError when the step count n that `what` gives exceeds
    MAX_STEPS."""
    if n > MAX_STEPS:
        raise ParameterError(f"{what} gives {n:.3g} steps, more than "
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
    finite region |y_i| <= kernels.BLOWUP_CAP (1e12); these flows have
    finite-time poles, so the hard cap is mandatory.
    """
    y0 = as_state(y0, flow.dim)
    nsteps = _steps_for(t_end, dt)
    traj, end = rk4_states(flow, y0, dt, nsteps)
    if end < nsteps:
        raise BlowupError(
            f"trajectory of {flow.name} left the finite region at t = {(end + 1) * dt:g}",
            last_time=end * dt, last_state=traj[end])
    times = dt * np.arange(nsteps + 1)
    return TrajectoryRecord(system=flow.name, times=times, states=traj)


def rk4_states(flow: FlowSpec, y0, dt: float, nsteps: int) -> tuple[np.ndarray, int]:
    """Non-raising RK4 iteration used by the drift harness: returns
    (states, last_step) with last_step < nsteps past kernels.BLOWUP_CAP."""
    y0 = as_state(y0, flow.dim)
    return kernels.rk4_orbit(flow.rhs, y0.tolist(), float(dt), nsteps)


def verify_hyperelliptic_relation(N: int, traj: TrajectoryRecord) -> float:
    """Max residual of (dx_1/dt)^2 = prod_{j=2..N}(x_1^2 + E_j1) along a
    generalized-Euler trajectory, with E_j1 = x_j^2 - x_1^2 frozen at the
    initial state.  Residuals are normalized by 1 + |product|."""
    if traj.dim != N:
        raise DimensionError("trajectory dimension does not match N")
    x0 = traj.states[0]
    E = x0[1:] ** 2 - x0[0] ** 2
    worst = 0.0
    for x in traj.states:
        xdot1 = float(kernels._rhs_product_complement(x)[0])
        prod = float(np.prod(x[0] ** 2 + E))
        worst = max(worst, abs(xdot1 * xdot1 - prod) / (1.0 + abs(prod)))
    return worst
