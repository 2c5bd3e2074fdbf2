"""The generated RK4 step against references written as loops: a list-level
RK4 loop and per-coordinate right-hand sides.  Equal bits and equal ends on
every shipped flow, exact agreement on Fractions and mpfs, large N, and one
compile per (kind, N).
"""
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mpf

from kovtop import flows, kernels
from kovtop.cli import main
from kovtop.errors import BlowupError, DimensionError


def _reference_rk4(rhs, y0, dt, nsteps, stops=None):
    # the list-level loop the generated step replaced; `stops` collects why
    # an orbit ended: "nan", "inf" (an infinity and no NaN), "cap" (finite
    # coordinates past it) or "whole"
    cap = kernels.BLOWUP_CAP
    h = dt / 2
    w = dt / 6
    y = list(y0)
    rows = [y]
    for _ in range(nsteps):
        k1 = rhs(y)
        k2 = rhs([a + h * b for a, b in zip(y, k1)])
        k3 = rhs([a + h * b for a, b in zip(y, k2)])
        k4 = rhs([a + dt * b for a, b in zip(y, k3)])
        y = [a + w * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        if not (all(map(math.isfinite, y)) and max(map(abs, y)) <= cap):
            if stops is not None:
                stops.add("nan" if any(v != v for v in y) else
                          "cap" if all(map(math.isfinite, y)) else "inf")
            break
        rows.append(y)
    else:
        if stops is not None:
            stops.add("whole")
    return np.array(rows), len(rows) - 1


def _reference_product_complement(x):
    n = len(x)
    out = []
    for i in range(n):
        p = 1
        for j in range(n):
            if j != i:
                p *= x[j]
        out.append(p)
    return out


def _reference_e1_only(alpha, c1):
    # the e_1-only right-hand side of the default generalized Kovalevskaya
    # flow
    def rhs(y):
        e1 = 0
        for v in y:
            e1 += v * 1
        s = 0 + c1 * e1
        return [v * (s - alpha * v) for v in y]
    return rhs


def _case(key):
    """(flow, reference right-hand side) for a key of FLOWS."""
    kind, N, arg = key
    if kind == "gen-kov":
        alpha, c1 = arg
        flow = flows.generalized_kovalevskaya(
            N, alpha, None if c1 == 1.0 else [c1] + [0.0] * (N - 1))
        return flow, _reference_e1_only(alpha, c1)
    if kind == "gen-kov-custom-s":
        flow = flows.generalized_kovalevskaya(N, 2.0, arg)
        return flow, lambda y: kernels._rhs_scaled_quadratic(y, 2.0, arg)
    if kind in ("gen-euler", "euler3"):
        flow = flows.euler_top3() if kind == "euler3" else flows.generalized_euler(N)
        return flow, _reference_product_complement
    if kind == "kov3":
        # alpha 2 and c1 1 are bound into the type-generic rhs as ints
        return flows.kovalevskaya3(), _reference_e1_only(2, 1)
    field = flows.euler_field() if arg == "euler" else flows.kovalevskaya_field(N)
    return (flows.quadratic_flow(field),
            lambda y: kernels._rhs_quadratic_field(field.terms, y))


FLOWS = ([("kov3", 3, None), ("euler3", 3, None)]
         + [("gen-kov", N, ac) for N in range(3, 9)
            for ac in ((2.0, 1.0), (1.3, 1.0), (2.0, 2.5))]
         + [("gen-kov-custom-s", 4, [1.0, 0.5, 0.0, 0.0]),
            ("gen-kov-custom-s", 3, [0.0, 0.0, 1.0])]
         + [("gen-euler", N, None) for N in range(3, 7)]
         + [("quadratic", 4, "kov"), ("quadratic", 3, "euler")])
DTS = (1e-4, 1e-3, 1e-2, 0.1, 1.0)


def _starts(N, seed):
    # ordinary starts, starts that reach the 1e12 cap within the steps, and
    # signed starts far past it, whose stages overflow and go NaN
    rng = np.random.default_rng(seed)
    out = [rng.uniform(-0.5, 0.5, N), rng.uniform(0.5, 3.0, N)]
    out += [rng.choice([-1.0, 1.0], N) * 10.0 ** rng.uniform(lo, hi, N)
            for lo, hi in ((0, 4), (4, 8), (8, 12), (30, 60), (60, 200))
            + ((-300, 300),) * 8]
    return [y.tolist() for y in out]


def _bits(values):
    return np.array(values, dtype=float).tobytes()


#: the orbit loop's reason for each stop of the reference loop
_REASONS = {"nan": "non-finite", "inf": "non-finite", "cap": "cap",
            "whole": "whole"}


@pytest.mark.parametrize("key", FLOWS, ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
def test_generated_step_matches_list_rk4(key):
    stops = set()
    flow, rhs = _case(key)
    for dt in DTS:
        for y0 in _starts(flow.dim, seed=flow.dim):
            got, end, why = kernels.rk4_orbit(flow.orbit, y0, dt, 40)
            stop = set()
            want, want_end = _reference_rk4(rhs, y0, dt, 40, stop)
            assert end == want_end, (dt, y0)
            (label,) = stop
            assert _REASONS[label] == why, (dt, y0)
            stops.add(label)
            assert got.tobytes() == want.tobytes(), (dt, y0)
            assert _bits(flow.rhs(y0)) == _bits(rhs(y0)), y0
    # the starts reach every exit: a NaN, finite coordinates past the cap,
    # and the last step
    assert {"nan", "cap", "whole"} <= stops


@pytest.mark.parametrize("num", [Fraction, mpf])
@pytest.mark.parametrize("key", [("kov3", 3, None), ("gen-kov", 4, (1.3, 1.0)),
                                 ("gen-kov-custom-s", 4, [1.0, 0.5, 0.0, 0.0]),
                                 ("gen-euler", 4, None),
                                 ("quadratic", 3, "euler")],
                         ids=lambda k: f"{k[0]}-{k[1]}")
def test_generated_step_is_the_reference_on_exact_types(num, key):
    flow, rhs = _case(key)
    y0 = [num(k) / 16 for k in (3, -5, 7, 2, 9)[:flow.dim]]
    dt = num(1) / 64
    # two steps: a Fraction's digits grow as degree ** (4 * steps)
    got, end, _ = kernels.rk4_orbit(flow.orbit, y0, dt, 2)
    want, want_end = _reference_rk4(rhs, y0, dt, 2)
    assert end == want_end == 2
    assert got.tolist() == want.tolist()
    assert [type(v) for v in got.ravel()] == [type(v) for v in want.ravel()]
    if key[0] == "gen-euler":
        assert all(type(v) is num for v in got.ravel())


@pytest.mark.parametrize("key", [("gen-kov", 300, (2.0, 1.0)),
                                 ("gen-euler", 20, None),
                                 ("gen-euler", 40, None)],
                         ids=lambda k: f"{k[0]}-{k[1]}")
def test_large_dimension_compiles_and_matches(key):
    # no emitted expression nests N deep, so N = MAX_FLOW_DIM compiles
    flow, rhs = _case(key)
    rng = np.random.default_rng(3)
    for y0 in (rng.uniform(-0.5, 0.5, flow.dim).tolist(),
               rng.uniform(-20.0, 20.0, flow.dim).tolist()):
        got, end, _ = kernels.rk4_orbit(flow.orbit, y0, 1e-3, 1)
        want, want_end = _reference_rk4(rhs, y0, 1e-3, 1)
        assert end == want_end and got.tobytes() == want.tobytes()


def test_hyperelliptic_relation_reads_the_flow_rhs():
    traj = flows.integrate_reference(flows.generalized_euler(4),
                                     [0.21, 0.13, 0.27, 0.09], 0.1, 1e-3)
    worst = 0.0
    x0 = traj.states[0]
    E = x0[1:] ** 2 - x0[0] ** 2
    for x in traj.states:
        xdot1 = float(_reference_product_complement(x)[0])
        prod = float(np.prod(x[0] ** 2 + E))
        worst = max(worst, abs(xdot1 * xdot1 - prod) / (1.0 + abs(prod)))
    assert flows.verify_hyperelliptic_relation(4, traj) == worst


def test_user_flowspec_gets_a_calling_step():
    def rhs(y):
        return [y[1], -y[0], y[0] * y[1]]

    flow = flows.FlowSpec("oscillator", 3, rhs)
    got, end, _ = flows.rk4_states(flow, [1.0, 0.0, 0.5], 0.01, 100)
    want, want_end = _reference_rk4(rhs, [1.0, 0.0, 0.5], 0.01, 100)
    assert end == want_end == 100 and got.tobytes() == want.tobytes()


def test_user_rhs_that_divides_by_zero_ends_singular():
    # dy_1/dt = -1 and dy_2/dt = 1/y_1 from y_1 = 1 at dt = 1/2: the fourth
    # stage of the second step evaluates 1/y_1 at y_1 = 0
    def rhs(y):
        return [-1, 1 / y[0], 0 * y[2]]

    flow = flows.FlowSpec("user", 3, rhs)
    y0, dt = [Fraction(1), Fraction(0), Fraction(1)], Fraction(1, 2)
    got, end, why = kernels.rk4_orbit(flow.orbit, y0, dt, 5)
    want, want_end = _reference_rk4(rhs, y0, dt, 1)
    assert (end, why) == (want_end, "singular")
    assert got.tolist() == want.tolist()
    with pytest.raises(ZeroDivisionError):
        _reference_rk4(rhs, y0, dt, 2)
    # floats divide by zero at the same stage, and the reference integrator
    # says so
    with pytest.raises(BlowupError, match="divided by zero at t = 1$"):
        flows.integrate_reference(flow, [1.0, 0.0, 1.0], 2.0, 0.5)


def test_replacing_the_rhs_replaces_the_step():
    def rhs(y):
        return [y[1] * y[2], -y[0] * y[2], 0.5 * y[0]]

    flow = replace(flows.generalized_euler(3), rhs=rhs)
    assert flow.orbit is not flows.generalized_euler(3).orbit
    got, end, _ = flows.rk4_states(flow, [0.3, 0.4, 0.5], 0.01, 50)
    want, want_end = _reference_rk4(rhs, [0.3, 0.4, 0.5], 0.01, 50)
    assert end == want_end == 50 and got.tobytes() == want.tobytes()
    # the orbit follows the rhs; it is not an argument
    with pytest.raises(TypeError):
        flows.FlowSpec("euler3", 3, rhs, orbit=flow.orbit)


@pytest.mark.parametrize("build", [
    lambda n: flows.generalized_kovalevskaya(n),
    lambda n: flows.generalized_kovalevskaya(n, 2.0, [1.0, 1.0] + [0.0] * (n - 2)),
    flows.generalized_euler,
    lambda n: flows.FlowSpec("user", n, lambda y: list(y)),
], ids=["gen-kov", "gen-kov-custom-s", "gen-euler", "user"])
def test_flow_dimension_is_bounded(build):
    # the compiled step grows with N, so a larger N is refused before any
    # source is written
    kernels._factory.cache_clear()
    with pytest.raises(DimensionError, match="MAX_FLOW_DIM"):
        build(flows.MAX_FLOW_DIM + 1)
    assert kernels._factory.cache_info().misses == 0


def test_a_flow_compiles_once_per_kind_and_dimension():
    kernels._factory.cache_clear()
    a = flows.generalized_kovalevskaya(4)
    b = flows.generalized_kovalevskaya(4)
    # the constants are bound by name: another alpha reuses the compiled code
    c = flows.generalized_kovalevskaya(4, 1.3)
    assert kernels._factory.cache_info().misses == 1
    assert a.orbit.__code__ is b.orbit.__code__ is c.orbit.__code__
    y = [0.1, 0.2, 0.3, 0.4]
    assert a.rhs(y) == b.rhs(y) != c.rhs(y)
    flows.generalized_euler(4)
    flows.generalized_euler(5)
    assert kernels._factory.cache_info().misses == 3


def test_repeated_cli_calls_compile_once(capsys):
    argv = ["drift", "--flow", "gen-kov", "--n", "4", "--eps", "0.001",
            "--steps", "8", "--starts", "2"]
    kernels._factory.cache_clear()
    assert main(argv) == 0
    first = kernels._factory.cache_info().misses
    assert main(argv) == 0
    assert kernels._factory.cache_info().misses == first == 1
    out = capsys.readouterr().out
    assert out[:len(out) // 2] == out[len(out) // 2:]
