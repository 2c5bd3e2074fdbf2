"""Hot numeric kernels: map steps and guarded orbits, RK4 integration.

Python numbers inside, ndarrays at the edge.  Every kernel works on a Python
sequence of numbers, one state at a time, and every map, flow and command runs
through them.  Each compiled kernel is bound twice.  Its float binding,
`.floats`, runs the source as written, with float literals: CPython
specializes float-float arithmetic but not int-float.  Its integer binding
is the same code with each whole-number float constant as the equal int,
so it runs on floats, on `fractions.Fraction`s (exactly) and on mpmath
`mpf`s; a small int converts to a double exactly, so on floats the two
give the same bits.  Only the cosine-law step takes a square root, through
the `math.sqrt` it binds, so it stays out of exact runs.
`map_step`, `map_orbit` and `rk4_orbit` run the float binding when eps (or
dt) and every coordinate are Python floats, and the integer binding on any
other numbers.  An orbit loop collects its states in one flat list, which
`map_orbit` and `rk4_orbit` stack once into a (T, N) ndarray: float64 after
the float binding, and numpy's own dtype otherwise, object for `Fraction`s
and `mpf`s.  The kernels accumulate over coordinates in a fixed order, so
their float results do not depend on any library's reduction order.

One code generator writes the map steps, the flows' right-hand sides and
one orbit loop (`_orbit`, for maps and flows alike) as straight-line source
for a dimension N, with locals a0..a{N-1}.  An emitter writes one formula; a
template wraps it; `_factory` compiles each (template, emitter, N) once,
keeping the 32 most recent, and each call binds its own constants by name.

- `compile_map` takes a map's emitter (`maps` has one per map) and returns
  its step, ``step(y, eps) -> (new_state, regularity)``, with the guarded
  orbit loop attached as ``step.orbit``.  `maps.DiscreteMap` carries the step
  as `kernel`; `map_step` runs it and `map_orbit` runs its `.orbit`.  The
  emitter hands over its state lines and its regularity lines apart: the
  step runs both, and the loop the state lines, then the cap test (as
  -cap <= z <= cap) and, on a tracked orbit, the regularity lines and the
  tracking guards: strain (regularity below STRAIN_FLOOR), resolution
  (|eps|*max|y| above RESOLUTION_BOUND) and coincidence (relative depth
  below COINCIDENCE_DEPTH, on magnitudes where `compile_map` bound
  ``even=True``).  Each stop is a `break` that names its reason, one of
  STOP_REASONS.  The coincidence test sorts the state and checks the N - 1
  neighbours, so the source grows linearly in N, and long sums are folded
  (`emit_fold`), so any N compiles.
- `compile_flow` takes a flow's emitter (`flows` has three: the e_1-only
  generalized Kovalevskaya field and the product complement of the
  generalized Euler flows written inline, and a call of any other
  right-hand side) and returns the right-hand side with its orbit as
  ``rhs.orbit``: the same loop around `_rk4` of the emitter, one RK4 step
  with the right-hand side emitted at each stage, with the cap and
  non-finite tests only.  `rk4_orbit` runs it, so a flow stops "whole",
  "cap" or "non-finite" ("singular" only where a right-hand side divides
  by zero).  A right-hand side skips its zero coefficients, so an overflow
  there is never read.

The regularity factor of a map step is the smallest magnitude among the
step's denominator factors, normalised so that it equals 1 at eps = 0, and
written as the compare chain of `min` (`emit_min_abs`); it
drives both singularity detection and the drift harness's certification
window.  A vanishing denominator raises `ZeroDivisionError` inside a step;
`map_step` reads it as a non-finite step, the orbit loop as the stop
"singular", and the public wrappers in `maps` translate that into typed
exceptions.
"""
import functools
import types
from math import inf, isfinite, nan

import numpy as np

#: hard bound on coordinate magnitude for map orbits and RK4 trajectories
BLOWUP_CAP = 1e12

#: the tracking guards of a map orbit: it stops when a step's regularity
#: falls below STRAIN_FLOOR, when |eps|*max|y| exceeds RESOLUTION_BOUND, or
#: when two coordinates come within COINCIDENCE_DEPTH of each other, relative
STRAIN_FLOOR = 0.01
RESOLUTION_BOUND = 0.2
COINCIDENCE_DEPTH = 1e-6


def esp_all(y):
    """All elementary symmetric polynomials e_0..e_N of the sequence y, by the
    stable one-pass recurrence (coefficients of prod(1 + t*y_i))."""
    e = [1] + [0] * len(y)
    for i, yi in enumerate(y):
        j = i + 1
        while j:
            e[j] += yi * e[j - 1]
            j -= 1
    return e


def _rhs_scaled_quadratic(y, alpha, s_coeffs):
    # dy_i/dt = y_i (s - alpha y_i), s = sum_k s_coeffs[k-1] e_k(y) over the
    # nonzero coefficients: an e_k that overflows at a zero one is not read
    e = esp_all(y)
    s = 0
    for k, c in enumerate(s_coeffs, 1):
        if c:
            s += c * e[k]
    return [v * (s - alpha * v) for v in y]


def _rhs_quadratic_field(terms, y):
    # `terms` lists the nonzero (i, j, k, a_ijk) of a `QuadraticField` in
    # index order; out_i sums a_ijk*y_j*y_k over them
    out = [0] * len(y)
    for i, j, k, c in terms:
        out[i] += c * y[j] * y[k]
    return out


# An emitter writes one formula as straight-line statements, and a template
# wraps it in the functions `compile_flow` or `compile_map` returns.  A flow's
# emitter takes (ins, outs), the names of its N inputs and of its N outputs,
# and returns the source lines that assign the right-hand side to the outputs.
# A map's emitter takes (ins, outs, stop) and returns two lists of lines: the
# state lines, which assign the new state to the outputs, and the regularity
# lines, which assign the step's regularity to `reg`.  A step whose state
# lines read the regularity (the cosine-law step's domain test) assigns it
# there and returns no regularity lines.  A step that leaves its real domain
# runs the statement `stop` under an `if`.  `_rk4` writes one RK4 step of a
# flow's emitter.  Numbers are written as float literals (1.0, -4.0, never
# -0.0), whole ones as well: the integer binding holds each whole one as the
# equal int (`_factory`).  An emitter may bind temporaries and read its
# constants, under any name but those its template binds itself:
# - both templates: y, eps, nsteps, cap, strain_floor, res_bound, coin_depth,
#   inf, nan, isfinite, rows, ncap, why, map_orbit, on_floats, a<i> and z<i>;
# - the map template: map_step, tracking, even, reg, aeps, sc and p<i>;
# - the flow template: flow_rhs, h, w, u<i> and k<stage>_<i>,
# so a map's emitter may use u<i> and w<i>, as `_emit_alt` does.

#: most operands in one emitted expression; longer folds continue in further
#: statements, so no expression nests N deep (the compiler has a recursion
#: limit, a flow's N goes up to `flows.MAX_FLOW_DIM` and a map's is unbounded)
_FOLD_TERMS = 32

#: why an orbit ended: it ran every step ("whole"); a tracking guard stopped
#: it (the next three); a coordinate passed BLOWUP_CAP ("cap") or
#: was not finite; a step denominator vanished ("singular"); or the step left
#: the map's real domain ("domain", the cosine-law map's square roots).  A
#: flow's orbit runs unguarded and has no domain exit.
STOP_REASONS = ("whole", "strain", "resolution", "coincidence", "cap",
                "non-finite", "singular", "domain")


def emit_fold(target, head, op, terms):
    """Source lines for target = head op terms[0] op terms[1] ..., evaluated
    left to right."""
    if not terms:
        return [f"{target} = {head}"]
    lines = []
    for i in range(0, len(terms), _FOLD_TERMS):
        lines.append(f"{target} = "
                     + f" {op} ".join([head] + terms[i:i + _FOLD_TERMS]))
        head = target
    return lines


def emit_min_abs(target, head, terms):
    """Source lines for target = min(head, abs(terms[0]), abs(terms[1]), ...),
    or without `head` (None) min(abs(terms[0]), ...), as the compare chain
    of min's own comparisons: abs(term) < target, in order, keeping the
    first of equal values and passing over a NaN as min does."""
    if head is None:
        head, terms = f"abs({terms[0]})", terms[1:]
    return [f"{target} = {head}"] + [
        f"if abs({t}) < {target}: {target} = abs({t})" for t in terms]


def _indent(lines, depth):
    return ["    " * depth + line for line in lines]


def _names(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def _unpack(targets):
    return ", ".join(targets) + ", = y"


def _rk4(emit, ins, outs):
    # One classical RK4 step of time eps from `ins` to `outs`, with the
    # flow's right-hand side emitted at each of the four stages, in the
    # operations of the list form k2 = f([a + h*b for a, b in zip(y, k1)]),
    # ..., y + w*(k1 + 2*k2 + 2*k3 + k4).  h and w depend on eps alone: the
    # lines _RK4_SETUP bind them once per orbit, before its loop
    u = _names("u", len(ins))
    k = [_names(f"k{s}_", len(ins)) for s in range(1, 5)]
    lines = emit(ins, k[0])
    for scale, ks, next_ks in zip(("h", "h", "eps"), k, k[1:]):
        lines += [f"{ui} = {ai} + {scale} * {ki}"
                  for ui, ai, ki in zip(u, ins, ks)] + emit(u, next_ks)
    return lines + [
        f"{zi} = {ai} + w * ({b1} + 2.0 * {b2} + 2.0 * {b3} + {b4})"
        for zi, ai, b1, b2, b3, b4 in zip(outs, ins, *k)]


_RK4_SETUP = ("h = eps / 2.0", "w = eps / 6.0")


def _guards(reg, n):
    # The tracking guards of a map orbit, all under one `if tracking:`: the
    # regularity lines `reg`, then the strain, resolution and coincidence
    # tests, in that order, each stop a break that names its reason.  The
    # coincidence test sorts the state (its magnitudes where `compile_map`
    # bound `even` true) and compares neighbours only: across a sign change,
    # or from a zero to a nonzero, the separation |p - q|/(|p| + |q|) is 1,
    # and within one sign it grows with the distance in sorted order, so the
    # closest pair is adjacent and the N - 1 checks decide as all N(N-1)/2
    # pairs would.
    p, z = _names("p", n), _names("z", n)
    b = ", ".join(f"abs({zi})" for zi in z)
    tests = reg + ["if reg < strain_floor:", "    why = 'strain'; break",
                   f"if aeps * max({b}) > res_bound:",
                   "    why = 'resolution'; break",
                   f"{', '.join(p)}, = sorted(({b},) if even "
                   f"else ({', '.join(z)},))"]
    for lo, hi in zip(p, p[1:]):
        tests += [f"sc = abs({lo}) + abs({hi})",
                  f"if sc == 0.0 or abs({lo} - {hi}) / sc < coin_depth:",
                  "    why = 'coincidence'; break"]
    return ["if tracking:"] + _indent(tests, 1)


def _orbit(step, n, setup, tests):
    # The orbit loop from the sequence y: each pass runs the lines `step`,
    # which write the new state to z0..z{N-1}, then the non-finite and cap
    # tests and the lines `tests`, and appends the state to the one flat list
    # `rows` (y first), which `_run_orbit` stacks.  Each stop is a break that
    # names its reason; a ZeroDivisionError (a vanishing denominator) ends
    # the loop as "singular".  The cap test reads the coordinates themselves,
    # as -cap <= z <= cap with -cap negated once per orbit (a NaN fails it
    # as abs(NaN) <= cap does).  A map's orbit, with `tests`, also takes the
    # switch `tracking` they run under; a flow's does not.
    # The lines `setup` run once, before the loop.  `on_floats` says whether
    # eps and every coordinate are Python floats.
    a, z = _names("a", n), _names("z", n)
    body = (step
            + ["if not (" + " and ".join(f"ncap <= {zi} <= cap" for zi in z)
               + "):",
               "    why = 'cap' if " + " and ".join(f"isfinite({zi})" for zi in z)
               + " else 'non-finite'",
               "    break"]
            + tests
            + [f"{ai} = {zi}" for ai, zi in zip(a, z)]
            + [f"rows += {', '.join(z)},"])
    orbit = ([_unpack(a), "rows = list(y)", "ncap = -cap", "why = 'whole'",
              *setup, "try:", "    for _ in range(nsteps):"]
             + _indent(body, 2)
             + ["except ZeroDivisionError:", "    why = 'singular'",
                "return rows, why"])
    # the float binding runs where eps and every coordinate are Python floats
    on_floats = ("    return type(eps) is float"
                 + "".join(f" is type({ai})" for ai in a))
    params = "y, eps, nsteps, tracking" if tests else "y, eps, nsteps"
    return ([f"def map_orbit({params}):"] + _indent(orbit, 1)
            + ["def on_floats(y, eps):", "    " + _unpack(a), on_floats,
               "map_orbit.on_floats = on_floats"])


def _map_template(emit, n):
    # one map step from the list y, and its guarded orbit, which runs the
    # regularity lines only on a tracked orbit
    a, z = _names("a", n), _names("z", n)
    state, reg = emit(a, z, f"return [nan] * {n}, reg")
    step = [_unpack(a)] + state + reg + [f"return [{', '.join(z)}], reg"]
    body, reg = emit(a, z, "why = 'domain'; break")
    return (["def map_step(y, eps):"] + _indent(step, 1)
            + _orbit(body, n, ["aeps = abs(eps)"], _guards(reg, n))
            + ["map_step.orbit = map_orbit", "map_step.on_floats = on_floats",
               "return map_step"])


def _flow_template(emit, n):
    # the right-hand side alone, and the orbit of its RK4 step, which has no
    # guard but the cap and non-finite tests
    u, k1 = _names("u", n), _names("k1_", n)
    rhs = [_unpack(u)] + emit(u, k1) + [f"return [{', '.join(k1)}]"]
    step = _rk4(emit, _names("a", n), _names("z", n))
    return (["def flow_rhs(y):"] + _indent(rhs, 1)
            + _orbit(step, n, _RK4_SETUP, [])
            + ["flow_rhs.orbit = map_orbit", "return flow_rhs"])


def _source(template, emit, names, n):
    # a factory `_make(<names>)` that binds the constants and returns the
    # function the template writes, with its companion attached
    body = "\n".join(_indent(template(emit, n), 1))
    return f"def _make({', '.join(names)}):\n{body}\n"


def _whole_as_int(c):
    # `c`, a code object's constants (nested functions included) or a
    # constant itself, with each whole-number float as the equal int
    if isinstance(c, types.CodeType):
        return c.replace(co_consts=tuple(map(_whole_as_int, c.co_consts)))
    return int(c) if type(c) is float and c.is_integer() else c


@functools.lru_cache(maxsize=32)
def _factory(template, emit, names, n):
    # one compile per (template, emitter, constant names, N); the 32 most
    # recent are kept, since a generalized Euler orbit's code grows as N^2.
    # Returns the factories of the float binding, `_make` as compiled, and
    # of the integer binding, the same instructions on ints
    namespace = {"inf": inf, "nan": nan, "isfinite": isfinite}
    exec(compile(_source(template, emit, names, n),
                 f"<{emit.__name__} N={n}>", "exec"), namespace)
    make = namespace["_make"]
    return make, types.FunctionType(_whole_as_int(make.__code__), namespace)


def _bind(template, emit, n, consts):
    # The function `template` writes for `emit` at N, bound twice from one
    # compile, by the integer binding's factory (type-generic, each
    # whole-number float constant bound as the equal int) and by the float
    # binding's, attached as `.floats` to it and to its companion `.orbit`.
    # Both read BLOWUP_CAP and the tracking guards as they are at this call.
    consts = {"cap": BLOWUP_CAP, "strain_floor": STRAIN_FLOOR,
              "res_bound": RESOLUTION_BOUND, "coin_depth": COINCIDENCE_DEPTH,
              **consts}
    make_floats, make_ints = _factory(template, emit, tuple(consts), n)
    fn = make_ints(**{k: _whole_as_int(v) for k, v in consts.items()})
    fn.floats = make_floats(**consts)
    fn.orbit.floats = fn.floats.orbit
    return fn


def compile_flow(emit, n, **consts):
    """The N-dimensional right-hand side that `emit` writes, with the
    emitted code reading `consts` by name, and as the attribute `orbit` the
    orbit loop of `compile_map` around its RK4 step, which `rk4_orbit` runs.

    `rhs(y)` maps a sequence of N numbers to a list.  The source is
    compiled once per (emit, constant names, N) and bound twice: `rhs`
    holds its whole-number literals and constants as ints, so it runs
    unchanged on floats, `Fraction`s and `mpf`s, and `rhs.floats` (with
    `rhs.orbit.floats`) holds them as given, as floats, giving the same bits
    on floats faster.
    """
    return _bind(_flow_template, emit, n, consts)


def compile_map(emit, n, even=False, **consts):
    """The N-dimensional map step that `emit` writes, with the emitted code
    reading `consts` by name, and its guarded orbit as the attribute `orbit`.

    `step(y, eps)` maps a sequence of N numbers to ``(new_state,
    regularity)``; a vanishing denominator raises ZeroDivisionError, and a
    step outside the map's real domain gives NaN coordinates.
    `step.orbit(y, eps, nsteps, tracking)` iterates it from the sequence y
    with the stops of `map_orbit` inline and returns (rows, reason): the
    states one after another in one flat list, N numbers each, and the
    reason one of STOP_REASONS.  `even`, bound into the loop as its
    constants are, makes a tracked orbit test coincidence on magnitudes.
    Compiled and bound as in `compile_flow`: `step` is type-generic and
    `step.floats` (with `step.orbit.floats`) the float binding.
    """
    return _bind(_map_template, emit, n, {"even": even, **consts})


def map_step(kernel, y, eps):
    """One step of the step kernel `kernel` on the sequence `y`:
    (new_state, regularity).  A vanishing denominator gives NaN coordinates
    and regularity 0.  When eps and every coordinate are Python floats it
    runs the float binding `kernel.floats`, otherwise `kernel` itself."""
    if kernel.on_floats(y, eps):
        kernel = kernel.floats
    try:
        return kernel(y, eps)
    except ZeroDivisionError:
        return [nan] * len(y), 0


def _run_orbit(orbit, y0, eps, nsteps, *tracking):
    # the compiled orbit loop `orbit` from the sequence y0 (a map's with its
    # `tracking` switch), by its float binding where eps and every
    # coordinate are Python floats, with its flat rows stacked once into a
    # (T, N) ndarray: float64 after the float binding, numpy's own dtype
    # otherwise (object for `Fraction`s and `mpf`s)
    floats = orbit.on_floats(y0, eps)
    if floats:
        orbit = orbit.floats
    rows, why = orbit(y0, eps, nsteps, *tracking)
    table = np.array(rows, float if floats else None).reshape(-1, len(y0))
    return table, len(table) - 1, why


def map_orbit(kernel, y0, eps, nsteps, tracking):
    """Iterate the step kernel `kernel` (of `compile_map`) from the sequence
    `y0`, stopping at the first untrustworthy step.

    Stops when any coordinate is not finite or exceeds BLOWUP_CAP, on a
    vanishing denominator, or when the step leaves the map's real domain.
    A `tracking` orbit also stops when the step regularity drops below
    STRAIN_FLOOR, when |eps|*max|y| exceeds RESOLUTION_BOUND, or when the
    state comes within COINCIDENCE_DEPTH (relative) of a coincidence
    variety, on magnitudes for a kernel compiled with `even`.
    Returns (trajectory ndarray, last_step, reason): the states 0..last_step
    and the one of STOP_REASONS that ended the orbit, "whole" when all ran.
    Runs the float binding `kernel.orbit.floats` as `map_step` does.
    """
    return _run_orbit(kernel.orbit, y0, eps, nsteps, tracking)


def rk4_orbit(orbit, y0, dt, nsteps):
    """Classical fixed-step RK4 trajectory from the sequence `y0` by the
    `orbit` of a `compile_flow` right-hand side, with no guard but the cap:
    (trajectory ndarray, last_step, reason) as of `map_orbit`, the reason
    "whole", "cap", "non-finite" or, where the rhs divides by zero, "singular".
    Runs the float binding `orbit.floats` as `map_step` does."""
    return _run_orbit(orbit, y0, dt, nsteps)
