"""The generated map steps and guarded orbit loops against references written
as loops: the closed-form step functions, the all-pairs coincidence depth and
the generic orbit loop they replaced.  Equal bits, equal ends and equal stop
decisions on every map, raw and tracked, also with the loop bound at other
tracking constants, one test per stop reason, exact steps on Fractions and
mpfs, and source that grows linearly with N.
"""
import functools
from fractions import Fraction
from math import inf, isfinite, nan, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from conftest import fresh_map, loop_constants
from kovtop import flows, kernels, maps
from kovtop.invariants import random_starts


def step_euler_hk(x, eps):
    x1, x2, x3 = x
    q = x1 * x1 + x2 * x2 + x3 * x3
    den = 1 - eps * eps * q - 2 * eps * eps * eps * x1 * x2 * x3
    return [(x1 + 2 * eps * x2 * x3 + eps * eps * x1 * (q - 2 * x1 * x1)) / den,
            (x2 + 2 * eps * x3 * x1 + eps * eps * x2 * (q - 2 * x2 * x2)) / den,
            (x3 + 2 * eps * x1 * x2 + eps * eps * x3 * (q - 2 * x3 * x3)) / den
            ], abs(den)


def step_cosine(x, eps):
    # regularity is the signed minimum of 1 - eps^2 x_j^2: <= 0 (or NaN, when
    # eps^2 overflows) means the square roots leave the real domain.
    x0, x1, x2 = x
    w0 = 1 - eps * eps * x0 * x0
    w1 = 1 - eps * eps * x1 * x1
    w2 = 1 - eps * eps * x2 * x2
    reg = min(w0, min(w1, w2))
    if not reg > 0:
        return [nan, nan, nan], reg
    s0 = sqrt(w0)
    s1 = sqrt(w1)
    s2 = sqrt(w2)
    return [(x0 + eps * x1 * x2) / (s1 * s2),
            (x1 + eps * x2 * x0) / (s2 * s0),
            (x2 + eps * x0 * x1) / (s0 * s1)], reg


def step_kov_sqrt(y, eps):
    y0, y1, y2 = y
    a0 = 1 + eps * y0
    a1 = 1 + eps * y1
    a2 = 1 + eps * y2
    b0 = 1 - eps * eps * y1 * y2
    b1 = 1 - eps * eps * y2 * y0
    b2 = 1 - eps * eps * y0 * y1
    reg = min(abs(a0), abs(b0), abs(a1), abs(b1), abs(a2), abs(b2))
    return [y0 * a1 * a2 / (a0 * b0),
            y1 * a2 * a0 / (a1 * b1),
            y2 * a0 * a1 / (a2 * b2)], reg


def step_kov_pullback(y, eps):
    y0, y1, y2 = y
    e2 = y0 * y1 + y1 * y2 + y2 * y0
    e3 = y0 * y1 * y2
    glob = 1 - eps * eps * e2 - 2 * eps * eps * eps * e3
    f0 = 1 + 2 * eps * y0 + eps * eps * (e2 - 2 * y1 * y2)
    f1 = 1 + 2 * eps * y1 + eps * eps * (e2 - 2 * y2 * y0)
    f2 = 1 + 2 * eps * y2 + eps * eps * (e2 - 2 * y0 * y1)
    reg = min(abs(glob), abs(f0), abs(f1), abs(f2))
    return [y0 * f1 * f2 / (f0 * glob),
            y1 * f2 * f0 / (f1 * glob),
            y2 * f0 * f1 / (f2 * glob)], reg


def step_gen_hk(y, eps):
    s = 0
    for v in y:
        s += v
    d = []
    reg = inf
    t = 0
    for v in y:
        dv = 1 - eps * (-4 * v + s)
        if abs(dv) < reg:
            reg = abs(dv)
        d.append(dv)
        t += v / dv
    S = 1 - eps * t
    if abs(S) < reg:
        reg = abs(S)
    return [v / (S * dv) for v, dv in zip(y, d)], reg


def step_alt(y, eps):
    u = []
    reg = inf
    t = 0
    for v in y:
        w = 1 + eps * v
        if abs(w) < reg:
            reg = abs(w)
        ui = v / w
        u.append(ui)
        t += ui
    out = []
    for ui in u:
        r = 1 - eps * (t - ui)
        if abs(r) < reg:
            reg = abs(r)
        out.append(ui / r)
    return out, reg


REFERENCE_STEPS = {"euler-hk": step_euler_hk, "cosine": step_cosine,
                   "kov-sqrt": step_kov_sqrt, "kov-pullback": step_kov_pullback,
                   "gen-hk": step_gen_hk, "alt-map": step_alt}


def _coincidence_depth(y, even):
    # Smallest relative pairwise separation; with `even` the comparison is on
    # magnitudes (systems whose invariants depend on squares).
    n = len(y)
    m = inf
    for i in range(n):
        yi = y[i]
        for j in range(i + 1, n):
            yj = y[j]
            sc = abs(yi) + abs(yj)
            if sc == 0:
                return 0
            if even:
                d = abs(abs(yi) - abs(yj)) / sc
            else:
                d = abs(yi - yj) / sc
            if d < m:
                m = d
    return m


def _reference_orbit(kernel, y0, eps, nsteps, tracking, even):
    # the generic loop the generated one replaced, naming its stop in the
    # order of its tests, with the tracking guards at the loop's constants or
    # off; only the cosine step leaves a real domain, and it says so with NaN
    # coordinates and a regularity that is not > 0
    theta, resbound, coin_tol = ((kernels.STRAIN_FLOOR, kernels.RESOLUTION_BOUND,
                                  kernels.COINCIDENCE_DEPTH) if tracking
                                 else (0, inf, 0))
    cap = kernels.BLOWUP_CAP
    y = list(y0)
    rows = [y]
    aeps = abs(eps)
    why = "whole"
    for _ in range(nsteps):
        try:
            ynew, reg = kernel(y, eps)
        except ZeroDivisionError:
            why = "singular"
            break
        if not all(map(isfinite, ynew)):
            why = ("domain" if kernel is step_cosine and not reg > 0
                   else "non-finite")
            break
        big = max(map(abs, ynew))
        if big > cap:
            why = "cap"
        elif reg < theta:
            why = "strain"
        elif aeps * big > resbound:
            why = "resolution"
        elif coin_tol > 0 and _coincidence_depth(ynew, even) < coin_tol:
            why = "coincidence"
        else:
            rows.append(ynew)
            y = ynew
            continue
        break
    return np.array(rows), len(rows) - 1, why


def test_coincidence_depth():
    assert _coincidence_depth(np.array([1.0, 1.0, 2.0]), False) == 0.0
    assert _coincidence_depth(np.array([1.0, -1.0, 2.0]), True) == 0.0
    d = _coincidence_depth(np.array([1.0, 2.0, 4.0]), False)
    assert abs(d - 1.0 / 3.0) < 1e-15


MAPS = ([("euler-hk", 3), ("cosine", 3), ("kov-sqrt", 3), ("kov-pullback", 3)]
        + [(name, n) for name in ("gen-hk", "alt-map") for n in range(3, 7)])

#: the maps whose tracked orbits test coincidence on magnitudes: the
#: Euler-top steps conserve the even functions x_i^2 - x_j^2
EVEN_MAPS = {"euler-hk", "cosine"}

GUARD_SETS = {"raw": False, "tracking": True}

#: tracked orbits of loops bound at other constants than `kernels`' own:
#: without the resolution test (bound inf), with the coincidence test at the
#: least positive depth, and at the edges of the strain floor the loop
#: compares each step's regularity with
_LOOSE = {"RESOLUTION_BOUND": inf, "COINCIDENCE_DEPTH": 5e-324}
REBOUND_GUARDS = {"strain-coincidence": {"RESOLUTION_BOUND": inf},
                  "strain": _LOOSE,
                  "strain-negative": {**_LOOSE, "STRAIN_FLOOR": -1.0},
                  "strain-nan": {**_LOOSE, "STRAIN_FLOOR": nan},
                  "strain-inf": {**_LOOSE, "STRAIN_FLOOR": inf},
                  "strain-subnormal": {**_LOOSE, "STRAIN_FLOOR": 5e-324}}

#: gen-hk's d_1 = 1 + 3*eps*y_1 at y_2 = ... = 0 is 0.005 at eps = 0.01, a
#: strained first step at any N; the step itself is finite
_STRAIN_Y1 = -(1 - 0.005) / 0.03


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _states(n, seed):
    # seeded starts of the start box, signed starts over many decades, and
    # states at which a denominator of some map vanishes at eps = +-1
    rng = np.random.default_rng(seed)
    out = random_starts(4, n, seed).tolist()
    out += [(rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, hi, n)).tolist()
            for lo, hi in ((-3, 0), (0, 3), (3, 8), (100, 200))]
    zeros = [0.0] * (n - 1)
    out += [zeros + [1.0], [1.0] + zeros, [-0.5] + zeros,
            [-1.0] + [0.5] * (n - 1)]
    return out


def _step_outcome(step, y, eps):
    try:
        out, reg = step(y, eps)
    except ZeroDivisionError:
        return "singular"
    return _bits(out) + _bits([reg])


@pytest.mark.parametrize("name, n", MAPS, ids=lambda v: str(v))
def test_generated_step_matches_reference_bits(name, n):
    m = maps.get_map(name, n)
    ref = REFERENCE_STEPS[name]
    outcomes = set()
    for eps in (1e-4, 0.01, 0.05, 0.3, 1.0, 1e160):
        for sign in (1, -1):
            for y in _states(n, seed=n):
                got = _step_outcome(m.kernel, y, sign * eps)
                assert got == _step_outcome(ref, y, sign * eps), (sign * eps, y)
                outcomes.add(got == "singular")
    assert outcomes == {False, True} or name == "cosine"


def _orbit_starts(n):
    # two seeded starts, the first with its second coordinate moved near
    # the coincidence threshold 1e-6 (relative separation 5e-7 and about
    # 1e-6), in value and in magnitude only, and a start whose first gen-hk
    # step at eps 0.01 strains, a stop no orbit from the others reaches
    starts = random_starts(2, n, seed=7).tolist()
    y = starts[0]
    for k in (1e-6, 2e-6, -1e-6):
        starts.append([y[0], y[0] * (1 + abs(k)) * (1 if k > 0 else -1)] + y[2:])
    return starts + [[_STRAIN_Y1] + [0.0] * (n - 1)]


@pytest.mark.parametrize("guards", list(GUARD_SETS) + list(REBOUND_GUARDS))
@pytest.mark.parametrize("name, n", MAPS, ids=lambda v: str(v))
def test_generated_orbit_matches_reference_loop(name, n, guards):
    # the reference loop reads the constants the map's loop is bound at
    with loop_constants(**REBOUND_GUARDS.get(guards, {})):
        m = fresh_map(name, n)
        tracking = GUARD_SETS.get(guards, True)
        for eps in (1e-4, 0.01, -0.05):
            for y0 in _orbit_starts(n):
                got, end, why = kernels.map_orbit(m.kernel, y0, eps, 400,
                                                  tracking)
                want, want_end, want_why = _reference_orbit(
                    REFERENCE_STEPS[name], y0, eps, 400, tracking,
                    name in EVEN_MAPS)
                assert (end, why) == (want_end, want_why), (eps, y0)
                assert got.tobytes() == want.tobytes(), (eps, y0)


def test_reference_orbits_reach_the_guards():
    # the comparison above sees each guard, and the cosine domain, end an
    # orbit
    seen = set()
    for name, n in MAPS:
        m = maps.get_map(name, n)
        for tracking in GUARD_SETS.values():
            for eps in (1e-4, 0.01, -0.05):
                for y0 in _orbit_starts(n):
                    seen.add(kernels.map_orbit(m.kernel, y0, eps, 400,
                                               tracking)[2])
    assert {"whole", "strain", "resolution", "coincidence", "domain"} <= seen


# --- one hand-made start per stop reason ------------------------------------

_DIAGONAL_POLE = 0.5 / 0.1 * (1 - 1e-13)    # gen-hk N=3 at eps 0.1, see below

STOPS = {
    # (map, N, start, eps, tracking): (reason, last step)
    "whole": ("gen-hk", 3, [0.3, 0.4, 0.5], 0.01, True, 5),
    # regularity d_1 = 0.005, below the strain floor 0.01
    "strain": ("gen-hk", 3, [_STRAIN_Y1, 0.0, 0.0], 0.01, True, 0),
    # regularity 0.505, and |eps| * max|y| is about 0.35 after the step
    "resolution": ("gen-hk", 3, [0.3, 0.4, 0.5], 0.5, True, 0),
    # the map keeps equal coordinates equal
    "coincidence": ("alt-map", 4, [0.5, 0.5, 0.9, 1.3], 0.01, True, 0),
    # on the diagonal gen-hk N=3 is y -> y/(1 - 2 eps y), with its pole at
    # y = 1/(2 eps); one step from just below it passes 1e12
    "cap": ("gen-hk", 3, [_DIAGONAL_POLE] * 3, 0.1, False, 0),
    # q and the numerators overflow: inf / -inf
    "non-finite": ("euler-hk", 3, [1e200, 1e200, 1e200], 0.1, False, 0),
    # eps = 1 zeroes 1 + eps*y_1 exactly
    "singular": ("alt-map", 3, [-1.0, 0.5, 0.3], 1.0, False, 0),
    # eps^2 x_3^2 = 1.44 > 1
    "domain": ("cosine", 3, [0.5, 0.5, 2.0], 0.6, False, 0),
}


def test_stop_reasons_are_documented():
    assert set(STOPS) == set(kernels.STOP_REASONS)


@pytest.mark.parametrize("reason", list(STOPS))
def test_orbit_names_its_stop(reason):
    name, n, y0, eps, tracking, last = STOPS[reason]
    m = maps.get_map(name, n)
    states, end, why = m.orbit(y0, eps, 5, tracking)
    assert (why, end) == (reason, last)
    assert states.tolist()[0] == y0 and len(states) == end + 1
    ref = _reference_orbit(REFERENCE_STEPS[name], y0, eps, 5, tracking,
                           name in EVEN_MAPS)
    assert (ref[1], ref[2]) == (end, why)


# --- the sorted-neighbour coincidence test ----------------------------------

def _emit_identity(ins, outs, stop):
    return [f"{o} = {i}" for i, o in zip(ins, outs)], ["reg = 1"]


@st.composite
def near_coincidences(draw):
    # coordinates of both signs (and signed zeros) whose closest pair sits at
    # the threshold: q = p*(1 + 2*tol*(1 + k)) has separation about tol
    n = draw(st.integers(3, 8))
    tol = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 0.1, 0.5]))
    base = draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n))
    y = []
    for v in base:
        kind = draw(st.sampled_from(["free", "near", "zero"]))
        if kind == "near" and y:
            p = draw(st.sampled_from(y))
            k = draw(st.sampled_from([-1e-3, -1e-9, 0.0, 1e-9, 1e-3]))
            v = abs(p) * (1 + 2 * tol * (1 + k))
        elif kind == "zero":
            v = 0.0
        y.append(v * draw(st.sampled_from([1.0, -1.0])))
    even = draw(st.booleans())
    if draw(st.booleans()):
        # the threshold at exactly the separation of one pair
        i, j = draw(st.permutations(range(n)))[:2]
        p, q = (abs(y[i]), abs(y[j])) if even else (y[i], y[j])
        if abs(p - q) > 0:
            tol = abs(p - q) / (abs(p) + abs(q))
    return draw(st.permutations(y)), tol, even


@settings(deadline=None, max_examples=400)
@given(near_coincidences())
def test_sorted_neighbours_decide_as_all_pairs(case):
    # a step of the identity at eps = 0 passes the strain and resolution
    # tests, and its loop is bound with the case's coincidence depth and mode
    y, tol, even = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "COINCIDENCE_DEPTH", tol)
        step = kernels.compile_map(_emit_identity, len(y), even=even)
    _, why = step.orbit(list(y), 0.0, 1, True)
    assert (why == "coincidence") == (_coincidence_depth(y, even) < tol)


# --- regularity lines only where they are read -----------------------------

def _emit_ticking(ins, outs, stop):
    # the identity, whose regularity line calls the bound constant `tick`
    return [f"{o} = {i}" for i, o in zip(ins, outs)], ["reg = tick()"]


@pytest.mark.parametrize("num", [float, Fraction], ids=["float", "integer"])
def test_regularity_lines_run_on_a_step_and_a_tracked_orbit_only(num):
    # floats run the float binding, Fractions the integer binding: a raw
    # orbit computes no regularity, a tracked one one per step, a step one
    calls = []

    def tick():
        calls.append(None)
        return 1

    kernel = kernels.compile_map(_emit_ticking, 3, tick=tick)
    binding = kernel.floats if num is float else kernel
    y, eps = [num(3) / 10, num(4) / 10, num(5) / 10], num(1) / 100
    for orbit in (binding.orbit, functools.partial(kernels.map_orbit, kernel)):
        for tracking, k in ((False, 0), (True, 7)):
            calls.clear()
            assert orbit(y, eps, 7, tracking)[-1] == "whole"
            assert len(calls) == k
    for step in (binding, functools.partial(kernels.map_step, kernel)):
        calls.clear()
        assert step(y, eps) == (y, 1) and len(calls) == 1


# --- growth with N ---------------------------------------------------------

@pytest.mark.parametrize("emit", [maps._emit_gen_hk, maps._emit_alt,
                                  flows._emit_e1_only])
def test_map_source_grows_linearly(emit):
    # the two any-N maps, and the RK4 orbit of the default gen-kov flow
    template = (kernels._flow_template if emit is flows._emit_e1_only
                else kernels._map_template)
    lines = {n: len(kernels._source(template, emit, (), n).splitlines())
             for n in (10, 20, 100, 200, 500, 1000)}
    for n in (10, 100, 500):
        assert lines[2 * n] <= 2.2 * lines[n], lines


@pytest.mark.parametrize("guards", ["raw", "tracking"])
@pytest.mark.parametrize("build", [maps.gen_hk, maps.alt_map])
def test_large_dimension_orbit_matches_reference_loop(build, guards):
    # no map dimension bound: N = 500 compiles and runs as the loop does
    m = build(500)
    tracking = GUARD_SETS[guards]
    ref = REFERENCE_STEPS[m.name]
    rng = np.random.default_rng(5)
    for y0 in (rng.uniform(0.1, 2.0, 500).tolist(),
               (np.linspace(0.1, 2.0, 500) * rng.choice([-1, 1], 500)).tolist()):
        got, end, why = kernels.map_orbit(m.kernel, y0, 1e-4, 4, tracking)
        want, want_end, want_why = _reference_orbit(ref, y0, 1e-4, 4, tracking,
                                                    m.name in EVEN_MAPS)
        assert (end, why) == (want_end, want_why)
        assert got.tobytes() == want.tobytes()


# --- exact types ------------------------------------------------------------

# the cosine step takes square roots: no exact step on Fractions
@pytest.mark.parametrize("num, name, n",
                         [(mpf, name, n) for name, n in MAPS]
                         + [(Fraction, name, n) for name, n in MAPS
                            if name != "cosine"], ids=lambda v: str(v))
def test_generated_step_is_the_reference_on_exact_types(num, name, n):
    m = maps.get_map(name, n)
    y = [num(k) / 16 for k in (3, -5, 7, 2, 9, 11)[:n]]
    eps = num(1) / 64
    got, reg = kernels.map_step(m.kernel, y, eps)
    want, want_reg = REFERENCE_STEPS[name](y, eps)
    assert got == want and reg == want_reg
    assert [type(v) for v in got + [reg]] == [type(v) for v in want + [want_reg]]


# each map's step at -eps inverts its step at eps; the cosine step's square
# roots keep it out of exact runs
@pytest.mark.parametrize("name, n", [(name, n) for name, n in MAPS
                                     if name != "cosine"],
                         ids=lambda v: str(v))
def test_orbit_at_minus_eps_retraces_an_exact_orbit(name, n):
    m = maps.get_map(name, n)
    y0 = [Fraction(k, 64) for k in (3, -5, 7, 2, 9, 11)[:n]]
    eps = Fraction(1, 64)
    fwd, end, why = kernels.map_orbit(m.kernel, y0, eps, 3, False)
    back, back_end, back_why = kernels.map_orbit(
        m.kernel, fwd[-1].tolist(), -eps, 3, False)
    assert (end, why) == (back_end, back_why) == (3, "whole")
    for rows in (fwd, back):
        assert rows.shape == (4, n) and rows.dtype == object
        assert all(type(v) is Fraction for v in rows.flat)
    assert back[::-1].tolist() == fwd.tolist()
