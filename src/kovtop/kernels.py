"""Hot numeric kernels: map steps and guarded orbits, RK4 integration.

Python numbers inside, ndarrays at the edge.  Every kernel works on a Python
sequence of numbers, one state at a time, and every map, flow and command runs
through them.  The constants are integers, so the same code runs on floats,
on `fractions.Fraction`s (exactly) and on mpmath `mpf`s; only the cosine-law
step takes a square root, through the `math.sqrt` it binds, so it stays out
of exact runs.  `map_orbit` and `rk4_orbit` return their rows as one ndarray.
The kernels accumulate over coordinates in a fixed order, so their float
results do not depend on any library's reduction order.

One code generator writes the map steps, the flows' right-hand sides and
one orbit loop (`_orbit`, for maps and flows alike) as straight-line source
for a dimension N, with locals a0..a{N-1}.  An emitter writes one formula; a
template wraps it; `_factory` compiles each (template, emitter, N) once,
keeping the 32 most recent, and each call binds its own constants by name.

- `compile_map` takes a map's emitter (`maps` has one per map) and returns
  its step, ``step(y, eps) -> (new_state, regularity)``, with the guarded
  orbit loop attached as ``step.orbit``.  `maps.DiscreteMap` carries the step
  as `kernel`; `map_step` runs it and `map_orbit` runs its `.orbit`.  The
  loop writes the step out once more, followed by the cap, strain,
  resolution and coincidence tests, and each stop is a `break` that names
  its reason, one of STOP_REASONS.  The coincidence test sorts the state and
  checks the N - 1 neighbours, so the source grows linearly in N, and long
  sums are folded (`emit_fold`), so any N compiles.
- `compile_flow` takes a flow's emitter (`flows` has three: the e_1-only
  generalized Kovalevskaya field and the product complement of the
  generalized Euler flows written inline, and a call of any other
  right-hand side) and returns the right-hand side with its orbit as
  ``rhs.orbit``: the same loop around `_rk4` of the emitter, one RK4 step
  with the right-hand side emitted at each stage.  `rk4_orbit` runs it
  unguarded, so a flow stops "whole", "cap" or "non-finite" ("singular" only
  where a right-hand side divides by zero).  A right-hand side skips its
  zero coefficients, so an overflow there is never read.

The regularity factor of a map step is the smallest magnitude among the
step's denominator factors, normalised so that it equals 1 at eps = 0; it
drives both singularity detection and the drift harness's certification
window.  A vanishing denominator raises `ZeroDivisionError` inside a step;
`map_step` reads it as a non-finite step, the orbit loop as the stop
"singular", and the public wrappers in `maps` translate that into typed
exceptions.
"""
import functools
from math import inf, isfinite, nan

import numpy as np

#: hard bound on coordinate magnitude for map orbits and RK4 trajectories
BLOWUP_CAP = 1e12


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
# A map's emitter takes (ins, outs, stop) and assigns the new state to the
# outputs and the step's regularity to `reg`; a step that leaves its real
# domain runs the statement `stop` under an `if`.  `_rk4` makes a map's
# emitter of a flow's, with no domain exit and reg = inf.  An emitter may
# bind temporaries and read its constants, under any name but these, which
# the templates bind themselves: y, eps, h, w, cap, inf, nan, isfinite, reg,
# rows, aeps, res, coin, why, sc, nsteps, theta, resbound, coin_tol, even,
# flow_rhs, map_step, map_orbit, a<i>, b<i>, p<i>, u<i>, z<i> and
# k<stage>_<i>.

#: most operands in one emitted expression; longer folds continue in further
#: statements, so no expression nests N deep (the compiler has a recursion
#: limit, a flow's N goes up to `flows.MAX_FLOW_DIM` and a map's is unbounded)
_FOLD_TERMS = 32

#: why an orbit ended: it ran every step ("whole"); a guard of
#: `maps.OrbitGuards` stopped it; a coordinate passed BLOWUP_CAP ("cap") or
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


def _indent(lines, depth):
    return ["    " * depth + line for line in lines]


def _names(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def _unpack(targets):
    return ", ".join(targets) + ", = y"


def _rk4(emit):
    # A flow's emitter as a map's: one classical RK4 step of time eps with
    # the right-hand side emitted at each of the four stages, in the
    # operations of the list form k2 = f([a + h*b for a, b in zip(y, k1)]),
    # ..., y + w*(k1 + 2*k2 + 2*k3 + k4); no denominator, so reg = inf
    def emit_rk4(ins, outs, stop):
        u = _names("u", len(ins))
        k = [_names(f"k{s}_", len(ins)) for s in range(1, 5)]
        lines = ["h = eps / 2", "w = eps / 6"] + emit(ins, k[0])
        for scale, ks, next_ks in zip(("h", "h", "eps"), k, k[1:]):
            lines += [f"{ui} = {ai} + {scale} * {ki}"
                      for ui, ai, ki in zip(u, ins, ks)] + emit(u, next_ks)
        return lines + [f"{zi} = {ai} + w * ({b1} + 2 * {b2} + 2 * {b3} + {b4})"
                        for zi, ai, b1, b2, b3, b4 in zip(outs, ins, *k)
                        ] + ["reg = inf"]
    return emit_rk4


def _orbit(emit, n):
    # The guarded orbit with the step `emit` writes out in its loop.  The
    # tests run in the order non-finite, cap, strain, resolution,
    # coincidence, and each stop is a break that names its reason; a
    # ZeroDivisionError (a vanishing denominator) ends the loop as
    # "singular".  The coincidence test sorts the state (its magnitudes when
    # `even`) and compares neighbours only: across a sign change, or from a
    # zero to a nonzero, the separation |p - q|/(|p| + |q|) is 1, and within
    # one sign it grows with the distance in sorted order, so the closest
    # pair is adjacent and the N - 1 checks decide as all N(N-1)/2 pairs
    # would.
    a, b, p, z = _names("a", n), _names("b", n), _names("p", n), _names("z", n)
    neighbours = []
    for lo, hi in zip(p, p[1:]):
        neighbours += [f"sc = abs({lo}) + abs({hi})",
                       f"if sc == 0 or abs({lo} - {hi}) / sc < coin_tol:",
                       "    why = 'coincidence'; break"]
    body = (emit(a, z, "why = 'domain'; break")
            + [f"{bi} = abs({zi})" for bi, zi in zip(b, z)]
            + ["if not (" + " and ".join(f"{bi} <= cap" for bi in b) + "):",
               "    why = 'cap' if " + " and ".join(f"isfinite({zi})" for zi in z)
               + " else 'non-finite'",
               "    break",
               "if reg < theta:",
               "    why = 'strain'; break",
               f"if res and aeps * max({', '.join(b)}) > resbound:",
               "    why = 'resolution'; break",
               "if coin:",
               f"    {', '.join(p)}, = sorted(({', '.join(b)},) if even "
               f"else ({', '.join(z)},))"]
            + _indent(neighbours, 1)
            + [f"{ai} = {zi}" for ai, zi in zip(a, z)]
            + [f"rows.append([{', '.join(z)}])"])
    orbit = ([_unpack(a), "rows = [y]", "aeps = abs(eps)",
              # |eps|*max|y| > inf never holds, nor a comparison with NaN
              "res = resbound < inf", "coin = coin_tol > 0", "why = 'whole'",
              "try:", "    for _ in range(nsteps):"] + _indent(body, 2)
             + ["except ZeroDivisionError:", "    why = 'singular'",
                "return rows, why"])
    return (["def map_orbit(y, eps, nsteps, theta, resbound, coin_tol, even):"]
            + _indent(orbit, 1))


def _map_template(emit, n):
    # one map step from the list y, and its guarded orbit
    a, z = _names("a", n), _names("z", n)
    state = f"[{', '.join(z)}]"
    step = ([_unpack(a)] + emit(a, z, f"return [nan] * {n}, reg")
            + [f"return {state}, reg"])
    return (["def map_step(y, eps):"] + _indent(step, 1) + _orbit(emit, n)
            + ["map_step.orbit = map_orbit", "return map_step"])


def _flow_template(emit, n):
    # the right-hand side alone, and the orbit of its RK4 step
    u, k1 = _names("u", n), _names("k1_", n)
    rhs = [_unpack(u)] + emit(u, k1) + [f"return [{', '.join(k1)}]"]
    return (["def flow_rhs(y):"] + _indent(rhs, 1) + _orbit(_rk4(emit), n)
            + ["flow_rhs.orbit = map_orbit", "return flow_rhs"])


def _source(template, emit, names, n):
    # a factory `_make(cap, <names>)` that binds the constants and returns the
    # function the template writes, with its companion attached
    return "\n".join([f"def _make({', '.join(('cap',) + names)}):"]
                     + _indent(template(emit, n), 1) + [""])


@functools.lru_cache(maxsize=32)
def _factory(template, emit, names, n):
    # one compile per (template, emitter, constant names, N); the 32 most
    # recent are kept, since a generalized Euler orbit's code grows as N^2
    namespace = {"inf": inf, "nan": nan, "isfinite": isfinite}
    exec(compile(_source(template, emit, names, n),
                 f"<{emit.__name__} N={n}>", "exec"), namespace)
    return namespace["_make"]


def compile_flow(emit, n, **consts):
    """The N-dimensional right-hand side that `emit` writes, with the
    emitted code reading `consts` by name, and as the attribute `orbit` the
    orbit loop of `compile_map` around its RK4 step, which `rk4_orbit` runs.

    `rhs(y)` maps a sequence of N numbers to a list.  The source is
    compiled once per (emit, constant names, N) and each call binds its own
    constants, so building a flow twice compiles nothing the second time.
    The emitted code has integer constants only, so it runs unchanged on
    floats, `Fraction`s and `mpf`s.
    """
    return _factory(_flow_template, emit, tuple(consts), n)(BLOWUP_CAP, **consts)


def compile_map(emit, n, **consts):
    """The N-dimensional map step that `emit` writes, with the emitted code
    reading `consts` by name, and its guarded orbit as the attribute `orbit`.

    `step(y, eps)` maps a sequence of N numbers to ``(new_state,
    regularity)``; a vanishing denominator raises ZeroDivisionError, and a
    step outside the map's real domain gives NaN coordinates.
    `step.orbit(y, eps, nsteps, theta, resbound, coin_tol, even)` iterates
    it from the list y with the guards of `map_orbit` inline and returns
    (rows, reason), the rows as lists and the reason one of STOP_REASONS.
    Compiled and bound as in `compile_flow`, and as type-generic.
    """
    return _factory(_map_template, emit, tuple(consts), n)(BLOWUP_CAP, **consts)


def map_step(kernel, y, eps):
    """One step of the step kernel `kernel` on the sequence `y`:
    (new_state, regularity).  A vanishing denominator gives NaN coordinates
    and regularity 0."""
    try:
        return kernel(y, eps)
    except ZeroDivisionError:
        return [nan] * len(y), 0


def map_orbit(kernel, y0, eps, nsteps, theta, resbound, coin_tol, even):
    """Iterate the step kernel `kernel` (of `compile_map`) from the sequence
    `y0`, stopping at the first untrustworthy step.

    Stops when any coordinate is not finite or exceeds BLOWUP_CAP, when the
    step regularity drops below `theta`, when |eps|*max|y| exceeds
    `resbound`, when the state comes within `coin_tol` (relative, > 0 turns
    the test on) of a coincidence variety, on magnitudes when `even`, on a
    vanishing denominator, or when the step leaves the map's real domain.
    Returns (trajectory ndarray, last_step, reason): the states 0..last_step
    and the one of STOP_REASONS that ended the orbit, "whole" when all ran.
    """
    rows, why = kernel.orbit(list(y0), eps, nsteps, theta, resbound,
                             coin_tol, even)
    return np.array(rows), len(rows) - 1, why


def rk4_orbit(orbit, y0, dt, nsteps):
    """Classical fixed-step RK4 trajectory from the sequence `y0` by the
    `orbit` of a `compile_flow` right-hand side, with no guard but the cap:
    (trajectory ndarray, last_step, reason) as of `map_orbit`, the reason
    "whole", "cap", "non-finite" or, where the rhs divides by zero, "singular"."""
    rows, why = orbit(list(y0), dt, nsteps, 0, inf, 0, False)
    return np.array(rows), len(rows) - 1, why
