"""Hot numeric kernels: closed-form map steps, orbit iteration, RK4 integration.

Python numbers inside, ndarrays at the edge.  Every kernel works on a Python
sequence of numbers, one state at a time, and every map, flow and command runs
through them.  The constants are integers, so the same step code runs on
floats, on `fractions.Fraction`s (exactly) and on mpmath `mpf`s; only the
cosine-law step takes a square root, through `math.sqrt`, so it stays out of
exact runs.  `map_orbit` and `rk4_orbit` return their rows as one ndarray.
The kernels accumulate over coordinates in a fixed order, so their float
results do not depend on any library's reduction order.

The RK4 step is generated: `compile_flow` writes one step as straight-line
source for a flow's dimension N, with locals a0..a{N-1}, the four stages
unrolled and the right-hand side written out at each stage by the flow's
emitter, and compiles it once per (emitter, N), keeping the 32 most recent.
`flows` has three emitters: the e_1-only generalized Kovalevskaya field and
the product complement of the generalized Euler flows are written inline,
and any other right-hand side is called on the stage values.  A right-hand
side skips its zero coefficients, so an overflow there is never read.  The
emitted code has integer constants and binds the flow's constants by name,
so it is as type-generic as the map steps; `rk4_orbit` loops over it.

A `maps.DiscreteMap` carries its step kernel (a `step_*` function) as
`kernel`, and `map_step` and `map_orbit` take that function.  A kernel returns
``(new_state, regularity)``.  The regularity factor is the smallest magnitude
among the step's denominator factors, normalised so that it equals 1 at
eps = 0; it drives both singularity detection and the drift harness's
certification window.  A vanishing denominator raises `ZeroDivisionError`
inside a kernel; `map_step` and `map_orbit` read it as a non-finite step, and
the public wrappers in `maps` translate that into typed exceptions.
"""
import functools
from math import inf, isfinite, nan, sqrt

import numpy as np

#: hard bound on coordinate magnitude for map orbits and RK4 trajectories
BLOWUP_CAP = 1e12


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


def map_step(kernel, y, eps):
    """One step of the step kernel `kernel` on the sequence `y`:
    (new_state, regularity).  A vanishing denominator gives NaN coordinates
    and regularity 0."""
    try:
        return kernel(y, eps)
    except ZeroDivisionError:
        return [nan] * len(y), 0


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


def map_orbit(kernel, y0, eps, nsteps, theta, resbound, coin_tol, even):
    """Iterate the step kernel `kernel` from the sequence `y0`, stopping at the
    first untrustworthy step.

    Stops when the step regularity drops below `theta`, when
    |eps|*max|y| exceeds `resbound`, when the state comes within `coin_tol`
    (relative) of a coincidence variety, when any coordinate exceeds
    BLOWUP_CAP, or on non-finite values or a vanishing denominator.  Returns
    (trajectory ndarray, last_step): states 0..last_step are recorded, and
    last_step < nsteps means early stop.
    """
    cap = BLOWUP_CAP
    y = list(y0)
    rows = [y]
    aeps = abs(eps)
    for _ in range(nsteps):
        try:
            ynew, reg = kernel(y, eps)
        except ZeroDivisionError:
            break
        if not all(map(isfinite, ynew)):
            break
        big = max(map(abs, ynew))
        if big > cap or reg < theta or aeps * big > resbound \
                or (coin_tol > 0 and _coincidence_depth(ynew, even) < coin_tol):
            break
        rows.append(ynew)
        y = ynew
    return np.array(rows), len(rows) - 1


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


# An emitter writes one right-hand side as straight-line statements: given the
# names of its N inputs and of its N outputs, it returns the source lines that
# assign the outputs.  It may bind temporaries and read its flow's constants,
# under any name but these, which the RK4 template binds itself: y, dt, h, w,
# cap, flow_rhs, flow_step, a<i>, u<i>, z<i> and k<stage>_<i>.

#: most operands in one emitted expression; longer folds continue in further
#: statements, so no expression nests N deep (the compiler has a recursion
#: limit, and a flow's N goes up to `flows.MAX_FLOW_DIM`)
_FOLD_TERMS = 32


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


def _flow_source(emit, names, n):
    # The right-hand side alone, and one RK4 step from the list y with the
    # four stages unrolled and the right-hand side emitted at each; the
    # step returns the new list, or None once a coordinate leaves
    # |y_i| <= cap (NaN included).  Operations as in the list form
    # k2 = f([a + h*b for a, b in zip(y, k1)]), ...,
    # y + w*(k1 + 2*k2 + 2*k3 + k4).
    a = [f"a{i}" for i in range(n)]
    u = [f"u{i}" for i in range(n)]
    k1, k2, k3, k4 = ([f"k{s}_{i}" for i in range(n)] for s in range(1, 5))
    z = [f"z{i}" for i in range(n)]

    def unpack(targets):
        return ", ".join(targets) + ", = y"

    def stage(scale, ks):
        return [f"{ui} = {ai} + {scale} * {ki}" for ui, ai, ki in zip(u, a, ks)]

    rhs = [unpack(u)] + emit(u, k1) + [f"return [{', '.join(k1)}]"]
    step = ([unpack(a)] + emit(a, k1) + stage("h", k1) + emit(u, k2)
            + stage("h", k2) + emit(u, k3) + stage("dt", k3) + emit(u, k4)
            + [f"{zi} = {ai} + w * ({b1} + 2 * {b2} + 2 * {b3} + {b4})"
               for zi, ai, b1, b2, b3, b4 in zip(z, a, k1, k2, k3, k4)]
            + ["if " + " and ".join(f"abs({zi}) <= cap" for zi in z) + ":",
               f"    return [{', '.join(z)}]",
               "return None"])
    return "\n".join(
        [f"def _make({', '.join(('cap',) + names)}):", "    def flow_rhs(y):"]
        + _indent(rhs, 2) + ["    def flow_step(y, dt, h, w):"]
        + _indent(step, 2) + ["    flow_rhs.step = flow_step",
                              "    return flow_rhs", ""])


@functools.lru_cache(maxsize=32)
def _flow_factory(emit, names, n):
    # one compile per (emitter, constant names, N); the 32 most recent are
    # kept, since a generalized Euler step's code grows as N^2
    namespace = {}
    exec(compile(_flow_source(emit, names, n),
                 f"<flow {emit.__name__} N={n}>", "exec"), namespace)
    return namespace["_make"]


def compile_flow(emit, n, **consts):
    """The N-dimensional right-hand side that `emit` writes, with the
    emitted code reading `consts` by name, and its RK4 step as the
    attribute `step`.

    `rhs(y)` maps a sequence of N numbers to a list.  `rhs.step(y, dt,
    dt/2, dt/6)` is one classical RK4 step from the list y: the new state as
    a list, or None when a coordinate leaves the finite region
    |y_i| <= BLOWUP_CAP.  The source is compiled once per (emit, constant
    names, N) and each call binds its own constants, so building a flow twice
    compiles nothing the second time.  The emitted code has integer
    constants only, so it runs unchanged on floats, `Fraction`s and `mpf`s.
    """
    return _flow_factory(emit, tuple(consts), n)(BLOWUP_CAP, **consts)


def rk4_orbit(step, y0, dt, nsteps):
    """Classical fixed-step RK4 trajectory from the sequence `y0`, one
    `step` (of `compile_flow`) per time step.  Returns (trajectory ndarray,
    last_step); last_step < nsteps means the state left the finite region
    |y_i| <= BLOWUP_CAP."""
    h = dt / 2
    w = dt / 6
    y = list(y0)
    rows = [y]
    for _ in range(nsteps):
        y = step(y, dt, h, w)
        if y is None:
            break
        rows.append(y)
    return np.array(rows), len(rows) - 1
