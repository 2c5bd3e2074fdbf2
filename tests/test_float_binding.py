"""The float binding of every generated kernel against its integer binding:
the same instructions, holding the emitters' float literals where the
integer binding holds the equal ints, give the same bits and stop reasons
on floats, run wherever eps and every coordinate are Python floats, and
nowhere else.  An orbit of the float binding stacks at float64, any other
orbit at numpy's own dtype.
"""
import math
import types
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mpf

from kovtop import flows, kernels, maps
from test_map_orbit import GUARD_SETS, MAPS, _bits, _states, _step_outcome

EPS = [sign * e for e in (1e-4, 0.01, 0.3, 1.0, 1e160) for sign in (1, -1)]
STEPS = 30

FLOWS = ([("kov3", 3, 2.0), ("euler3", 3, 2.0)]
         + [("gen-kov", n, a) for n in (3, 4, 5) for a in (2.0, 1.3)]
         + [("gen-euler", n, 2.0) for n in (3, 4, 5)])


def _user_flow():
    return flows.FlowSpec("user", 3, lambda y: [y[1] * y[2], -2 * y[0] * y[2],
                                                0.5 * y[0] * y[1]])


def _orbit_outcome(orbit, y, eps, guards):
    rows, why = orbit(list(y), eps, STEPS, *guards)
    return _bits(rows), why


def _same_orbits(orbit, n, guard_sets=((),)):
    # a map's orbit under each tracking switch, a flow's with no guards
    for eps in EPS:
        for y in _states(n, seed=n):
            for g in guard_sets:
                assert (_orbit_outcome(orbit.floats, y, eps, g)
                        == _orbit_outcome(orbit, y, eps, g)), (eps, y, g)


@pytest.mark.parametrize("name, n", MAPS, ids=lambda v: str(v))
def test_float_binding_gives_the_integer_bindings_bits_on_maps(name, n):
    step = maps.get_map(name, n).kernel
    assert (step.floats is not step
            and step.floats.__code__.co_code == step.__code__.co_code)
    for eps in EPS:
        for y in _states(n, seed=n):
            assert (_step_outcome(step.floats, y, eps)
                    == _step_outcome(step, y, eps)), (eps, y)
    _same_orbits(step.orbit, n, [(g,) for g in GUARD_SETS.values()])


@pytest.mark.parametrize("name, n, alpha", FLOWS, ids=lambda v: str(v))
def test_float_binding_gives_the_integer_bindings_bits_on_flows(name, n,
                                                                alpha):
    flow = flows.get_flow(name, n, alpha)
    for y in _states(n, seed=n):
        assert _bits(flow.rhs.floats(y)) == _bits(flow.rhs(y)), y
    _same_orbits(flow.orbit, n)


def test_float_binding_gives_the_integer_bindings_bits_on_a_user_flow():
    _same_orbits(_user_flow().orbit, 3)


def _spy(monkeypatch, fn):
    # replace fn.floats by a wrapper that counts its calls
    calls = []
    floats = fn.floats

    def spy(*args):
        calls.append(args)
        return floats(*args)

    monkeypatch.setattr(fn, "floats", spy)
    return calls


_NOT_FLOATS = {
    "fraction": ([Fraction(1, 8), Fraction(3, 8), Fraction(5, 8),
                  Fraction(7, 8)], Fraction(1, 64)),
    "mpf": ([mpf(1) / 8, mpf(3) / 8, mpf(5) / 8, mpf(7) / 8], mpf(1) / 64),
    "float-eps-fraction-state": ([Fraction(1, 8), Fraction(3, 8),
                                  Fraction(5, 8), Fraction(7, 8)], 1 / 64),
    "one-fraction-coordinate": ([0.125, 0.375, Fraction(5, 8), 0.875],
                                1 / 64),
    "fraction-eps": ([0.125, 0.375, 0.625, 0.875], Fraction(1, 64)),
    "numpy-floats": (list(np.array([0.125, 0.375, 0.625, 0.875])), 1 / 64),
    "int-eps": ([0.125, 0.375, 0.625, 0.875], 0),
}


@pytest.mark.parametrize("case", list(_NOT_FLOATS))
def test_other_numbers_run_the_integer_binding(monkeypatch, case):
    y, eps = _NOT_FLOATS[case]
    m = maps.gen_hk(4)
    step_calls = _spy(monkeypatch, m.kernel)
    orbit_calls = _spy(monkeypatch, m.kernel.orbit)
    out, reg = kernels.map_step(m.kernel, y, eps)
    assert (out, reg) == m.kernel(y, eps)
    if case == "fraction":
        assert type(reg) is Fraction
        assert all(type(v) is Fraction for v in out)
    rows, end, why = kernels.map_orbit(m.kernel, y, eps, 3, False)
    assert (end, why) == (3, "whole")
    flow = flows.get_flow("gen-kov", 4)
    rk4_calls = _spy(monkeypatch, flow.orbit)
    kernels.rk4_orbit(flow.orbit, y, eps, 3)
    assert step_calls == orbit_calls == rk4_calls == []


def test_a_float_call_runs_the_float_binding(monkeypatch):
    m = maps.gen_hk(4)
    y = [0.125, 0.375, 0.625, 0.875]
    step_calls = _spy(monkeypatch, m.kernel)
    orbit_calls = _spy(monkeypatch, m.kernel.orbit)
    assert m.checked_step(y, 0.01) == m.kernel(y, 0.01)[0]
    m.orbit(y, 0.01, 3)
    flow = flows.get_flow("gen-kov", 4)
    rk4_calls = _spy(monkeypatch, flow.orbit)
    flows.rk4_states(flow, y, 0.01, 3)
    assert len(step_calls) == len(orbit_calls) == len(rk4_calls) == 1


def test_integer_literals_are_bound_by_value():
    # one compile, two bindings: the float binding holds the float literals
    # the emitter writes, the integer binding the equal ints; the stop's
    # repetition count is written as an int
    def numbers(fn):
        return [(type(c), c) for c in fn.__code__.co_consts
                if type(c) in (int, float)]

    step = maps.gen_hk(4).kernel
    assert numbers(step.floats) == [(float, 0.0), (float, 1.0), (float, -4.0)]
    assert numbers(step) == [(int, 0), (int, 1), (int, -4)]

    def emit(ins, outs):     # a literal that is not whole stays a float
        return [f"{o} = 0.5 * {i} - 3.0" for i, o in zip(ins, outs)]

    rhs = kernels.compile_flow(emit, 3)
    assert numbers(rhs.floats) == [(float, 0.5), (float, 3.0)]
    assert numbers(rhs) == [(float, 0.5), (int, 3)]
    source = kernels._source(kernels._map_template, maps._emit_cosine,
                             ("sqrt",), 3)
    assert source.startswith("def _make(sqrt):")
    assert "    w0 = 1.0 - eps * eps * a0 * a0" in source
    assert "return [nan] * 3, reg" in source
    # eps^2 x_3^2 = 1.44 > 1: the float binding leaves the domain too
    out, reg = kernels.map_step(maps.cosine_law().kernel, [0.5, 0.5, 2.0], 0.6)
    assert len(out) == 3 and all(v != v for v in out) and not reg > 0


# --- the two bindings' code -------------------------------------------------

SHIPPED = ([(name, 3) for name in ("euler-hk", "cosine", "kov-sqrt",
                                    "kov-pullback")]
           + [(name, n) for name in ("gen-hk", "alt-map") for n in (3, 4, 6, 40)]
           + [(name, n) for name in ("gen-kov", "gen-kov-alpha", "gen-kov-c1",
                                     "gen-euler", "user") for n in (3, 4, 40)])


def _binding_pairs(name, n):
    # (integer binding, float binding) of each compiled function of a kernel
    if name in maps.MAP_NAMES:
        step = maps.get_map(name, n).kernel
        orbit, pairs = step.orbit, [(step, step.floats)]
    else:
        flow = {
            "gen-kov": lambda: flows.get_flow("gen-kov", n),
            "gen-kov-alpha": lambda: flows.get_flow("gen-kov", n, 1.3),
            "gen-kov-c1": lambda: flows.generalized_kovalevskaya(
                n, s_coeffs=[2.5] + [0.0] * (n - 1)),
            "gen-euler": lambda: flows.get_flow("gen-euler", n),
            "user": lambda: flows.FlowSpec("user", n, lambda y: list(y)),
        }[name]()
        orbit = flow.orbit
        pairs = [(flow.rhs, flow.rhs.floats)] if name != "user" else []
    return pairs + [(orbit, orbit.floats),
                    (orbit.on_floats, orbit.floats.on_floats)]


def _code_pairs(ints, floats):
    # two code objects and, level by level, the functions nested in them
    yield ints, floats
    for a, b in zip(ints.co_consts, floats.co_consts):
        if isinstance(b, types.CodeType):
            yield from _code_pairs(a, b)


@pytest.mark.parametrize("name, n", SHIPPED, ids=lambda v: str(v))
def test_the_bindings_differ_only_in_whole_number_constants(name, n):
    # the same instructions; the float binding's numbers are floats but the
    # stop's repetition count, none is -0.0 (an int has no sign to keep),
    # and the integer binding holds the equal int where one is whole
    for int_fn, float_fn in _binding_pairs(name, n):
        for ints, floats in _code_pairs(int_fn.__code__, float_fn.__code__):
            assert ints.co_code == floats.co_code, floats.co_name
            assert len(ints.co_consts) == len(floats.co_consts)
            for a, b in zip(ints.co_consts, floats.co_consts):
                if type(b) is float:
                    assert math.copysign(1.0, b) > 0 or b != 0, floats.co_name
                    assert (a, type(a)) == ((int(b), int) if b.is_integer()
                                            else (b, float))
                elif type(b) is int:      # the stop's `[nan] * N`
                    assert (floats.co_name, b, a) == ("map_step", n, n)
                elif not isinstance(b, types.CodeType):
                    assert (a, type(a)) == (b, type(b))


def test_the_sign_of_alpha_keeps_its_flow():
    plus, minus = flows.get_flow("gen-kov", 4, 0.0), flows.get_flow("gen-kov",
                                                                    4, -0.0)
    assert (plus.name, minus.name) == ("gen-kov(N=4,alpha=0)",
                                       "gen-kov(N=4,alpha=-0)")
    assert plus.rhs is not minus.rhs


# --- the stacked table ------------------------------------------------------

def _stack_runs():
    genhk = maps.gen_hk(4).kernel
    euler = flows.get_flow("euler3", 3, 2.0).orbit
    geneuler = flows.get_flow("gen-euler", 4, 2.0).orbit
    frac = [Fraction(k, 64) for k in (3, -5, 7, 2)]
    ints = np.array([3]).dtype
    return {
        # name: (runner, its orbit loop, y0, eps, steps, the table's dtype)
        "map-float": ("map", genhk, [0.2, 0.3, 0.5, 0.7], 0.01, 6, np.float64),
        "map-fraction": ("map", genhk, frac, Fraction(1, 64), 3, object),
        "map-int": ("map", genhk, [3, 5, 7, 2], 0, 0, ints),
        # the integer binding divides: ints in, floats out
        "map-int-steps": ("map", genhk, [3, 5, 7, 2], 0, 2, np.float64),
        "rk4-float": ("rk4", euler, [0.2, 0.3, 0.5], 0.01, 6, np.float64),
        "rk4-fraction": ("rk4", euler, frac[:3], Fraction(1, 64), 3, object),
        "rk4-int": ("rk4", geneuler, [3, 5, 7, 2], 1, 2, ints),
    }


@pytest.mark.parametrize("runner, fn, y0, eps, steps, dtype",
                         list(_stack_runs().values()), ids=list(_stack_runs()))
def test_orbits_stack_float_runs_at_float64_and_others_as_numpy_does(
        runner, fn, y0, eps, steps, dtype):
    if runner == "map":
        got, end, got_why = kernels.map_orbit(fn, y0, eps, steps, False)
        fn, guards = fn.orbit, (False,)
    else:
        got, end, got_why = kernels.rk4_orbit(fn, y0, eps, steps)
        guards = ()
    # the same rows from the binding the runner picks, stacked by numpy's
    # own dtype discovery
    loop = fn.floats if fn.on_floats(y0, eps) else fn
    rows, why = loop(list(y0), eps, steps, *guards)
    want = np.array(rows).reshape(-1, len(y0))
    assert (end, got_why) == (len(want) - 1, why)
    assert got.dtype == want.dtype == dtype and got.shape == want.shape
    if dtype == object:
        assert got.tolist() == want.tolist()
        assert [type(v) for v in got.flat] == [type(v) for v in want.flat]
    else:
        assert got.tobytes() == want.tobytes()
