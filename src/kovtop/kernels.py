"""Hot numeric kernels: closed-form map steps, orbit iteration, RK4 integration.

Python numbers inside, ndarrays at the edge.  Every kernel works on a Python
sequence of numbers, one state at a time, and every map, flow and command runs
through them.  The constants are integers, so the same step code runs on
floats, on `fractions.Fraction`s (exactly) and on mpmath `mpf`s; only the
cosine-law step takes a square root, through `math.sqrt`, so it stays out of
exact runs.  `map_orbit` and `rk4_orbit` return their rows as one ndarray.
The kernels accumulate over coordinates in a fixed order, so their float
results do not depend on any library's reduction order.

Step kernels return ``(new_state, regularity)``.  The regularity factor is the
smallest magnitude among the step's denominator factors, normalised so that it
equals 1 at eps = 0; it drives both singularity detection and the drift
harness's certification window.  A vanishing denominator raises
`ZeroDivisionError` inside a step kernel; `map_step` and `map_orbit` read it as
a non-finite step, and the public wrappers in `maps` translate that into typed
exceptions.
"""
from math import inf, isfinite, nan, sqrt

import numpy as np

# Map dispatch codes (fixed; serialized nowhere, safe to renumber).
EULER_HK = 0
COSINE = 1
KOV_SQRT = 2
KOV_PULLBACK = 3
GEN_HK = 4
ALT = 5

BLOWUP_CAP = 1e12


def _step_euler_hk(x, eps):
    x1, x2, x3 = x
    q = x1 * x1 + x2 * x2 + x3 * x3
    den = 1 - eps * eps * q - 2 * eps * eps * eps * x1 * x2 * x3
    return [(x1 + 2 * eps * x2 * x3 + eps * eps * x1 * (q - 2 * x1 * x1)) / den,
            (x2 + 2 * eps * x3 * x1 + eps * eps * x2 * (q - 2 * x2 * x2)) / den,
            (x3 + 2 * eps * x1 * x2 + eps * eps * x3 * (q - 2 * x3 * x3)) / den
            ], abs(den)


def _step_cosine(x, eps):
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


def _step_kov_sqrt(y, eps):
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


def _step_kov_pullback(y, eps):
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


def _step_gen_hk(y, eps):
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


def _step_alt(y, eps):
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


# Indexed by map dispatch code.
_STEPS = (_step_euler_hk, _step_cosine, _step_kov_sqrt, _step_kov_pullback,
          _step_gen_hk, _step_alt)


def map_step(code, y, eps):
    """One step of the map with dispatch `code` on the sequence `y`:
    (new_state, regularity).  A vanishing denominator gives NaN coordinates
    and regularity 0."""
    try:
        return _STEPS[code](y, eps)
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


def map_orbit(code, y0, eps, nsteps, theta, resbound, coin_tol, even, cap):
    """Iterate a map from the sequence `y0`, stopping at the first
    untrustworthy step.

    Stops when the step regularity drops below `theta`, when
    |eps|*max|y| exceeds `resbound`, when the state comes within `coin_tol`
    (relative) of a coincidence variety, when any coordinate exceeds `cap`,
    or on non-finite values or a vanishing denominator.  Returns
    (trajectory ndarray, last_step): states 0..last_step are recorded, and
    last_step < nsteps means early stop.
    """
    step = _STEPS[code]
    y = list(y0)
    rows = [y]
    aeps = abs(eps)
    for _ in range(nsteps):
        try:
            ynew, reg = step(y, eps)
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
    # dy_i/dt = y_i (s - alpha y_i), s = sum_k s_coeffs[k-1] e_k(y); every
    # term of the sum is added, zero coefficients included, so an e_k that
    # overflows makes s NaN even at a zero coefficient.  The e_1-only flow of
    # `flows.generalized_kovalevskaya` skips this sum only where no e_k can
    # overflow, and comes here for every other state.
    e = esp_all(y)
    s = 0
    for k, c in enumerate(s_coeffs, 1):
        s += c * e[k]
    return [v * (s - alpha * v) for v in y]


def _rhs_product_complement(x):
    n = len(x)
    out = []
    for i in range(n):
        p = 1
        for j in range(n):
            if j != i:
                p *= x[j]
        out.append(p)
    return out


def _rhs_quadratic_field(coeffs, y):
    # `coeffs` is the (N, N, N) tensor as nested sequences
    n = len(y)
    out = []
    for row in coeffs:
        acc = 0
        for j in range(n):
            cj = row[j]
            yj = y[j]
            for k in range(j, n):
                c = cj[k]
                if c != 0:
                    acc += c * yj * y[k]
        out.append(acc)
    return out


def rk4_orbit(rhs, y0, dt, nsteps, cap):
    """Classical fixed-step RK4 trajectory of dy/dt = rhs(y) from the sequence
    `y0`; `rhs` maps a list of numbers to a list.  Returns (trajectory
    ndarray, last_step); last_step < nsteps means the state left the finite
    region |y_i| <= cap."""
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
        if not (all(map(isfinite, y)) and max(map(abs, y)) <= cap):
            break
        rows.append(y)
    return np.array(rows), len(rows) - 1
