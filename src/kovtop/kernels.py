"""Hot numeric kernels: closed-form map steps, orbit iteration, RK4 integration.

Every kernel is plain Python over numpy arrays, one state at a time, and
every map, flow and command runs through them.  The step kernels accumulate
over coordinates in a fixed order, so their results do not depend on numpy's
reduction order.

Step kernels return ``(new_state, regularity)``.  The regularity factor is the
smallest magnitude among the step's denominator factors, normalised so that it
equals 1 at eps = 0; it drives both singularity detection and the drift
harness's certification window.  Kernels never raise: a genuinely singular
step produces non-finite coordinates and a tiny regularity, and the public
wrappers in `maps` translate that into typed exceptions.
"""
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
    x1 = x[0]
    x2 = x[1]
    x3 = x[2]
    q = x1 * x1 + x2 * x2 + x3 * x3
    den = 1.0 - eps * eps * q - 2.0 * eps * eps * eps * x1 * x2 * x3
    out = np.empty(3)
    out[0] = (x1 + 2.0 * eps * x2 * x3 + eps * eps * x1 * (q - 2.0 * x1 * x1)) / den
    out[1] = (x2 + 2.0 * eps * x3 * x1 + eps * eps * x2 * (q - 2.0 * x2 * x2)) / den
    out[2] = (x3 + 2.0 * eps * x1 * x2 + eps * eps * x3 * (q - 2.0 * x3 * x3)) / den
    return out, abs(den)


def _step_cosine(x, eps):
    # regularity is the signed minimum of 1 - eps^2 x_j^2: <= 0 means the
    # square roots leave the real domain.
    out = np.empty(3)
    w0 = 1.0 - eps * eps * x[0] * x[0]
    w1 = 1.0 - eps * eps * x[1] * x[1]
    w2 = 1.0 - eps * eps * x[2] * x[2]
    reg = min(w0, min(w1, w2))
    if reg <= 0.0:
        out[0] = np.nan
        out[1] = np.nan
        out[2] = np.nan
        return out, reg
    s0 = np.sqrt(w0)
    s1 = np.sqrt(w1)
    s2 = np.sqrt(w2)
    out[0] = (x[0] + eps * x[1] * x[2]) / (s1 * s2)
    out[1] = (x[1] + eps * x[2] * x[0]) / (s2 * s0)
    out[2] = (x[2] + eps * x[0] * x[1]) / (s0 * s1)
    return out, reg


def _step_kov_sqrt(y, eps):
    out = np.empty(3)
    reg = 1e300
    for i in range(3):
        j = (i + 1) % 3
        k = (i + 2) % 3
        a = 1.0 + eps * y[i]
        b = 1.0 - eps * eps * y[j] * y[k]
        if abs(a) < reg:
            reg = abs(a)
        if abs(b) < reg:
            reg = abs(b)
        out[i] = y[i] * (1.0 + eps * y[j]) * (1.0 + eps * y[k]) / (a * b)
    return out, reg


def _step_kov_pullback(y, eps):
    e2 = y[0] * y[1] + y[1] * y[2] + y[2] * y[0]
    e3 = y[0] * y[1] * y[2]
    glob = 1.0 - eps * eps * e2 - 2.0 * eps * eps * eps * e3
    f = np.empty(3)
    reg = abs(glob)
    for m in range(3):
        p = (m + 1) % 3
        q = (m + 2) % 3
        f[m] = 1.0 + 2.0 * eps * y[m] + eps * eps * (e2 - 2.0 * y[p] * y[q])
        if abs(f[m]) < reg:
            reg = abs(f[m])
    out = np.empty(3)
    for i in range(3):
        j = (i + 1) % 3
        k = (i + 2) % 3
        out[i] = y[i] * f[j] * f[k] / (f[i] * glob)
    return out, reg


def _step_gen_hk(y, eps):
    n = y.shape[0]
    s = 0.0
    for i in range(n):
        s += y[i]
    d = np.empty(n)
    reg = 1e300
    t = 0.0
    for i in range(n):
        d[i] = 1.0 - eps * (-4.0 * y[i] + s)
        if abs(d[i]) < reg:
            reg = abs(d[i])
        t += y[i] / d[i]
    S = 1.0 - eps * t
    if abs(S) < reg:
        reg = abs(S)
    out = np.empty(n)
    for i in range(n):
        out[i] = y[i] / (S * d[i])
    return out, reg


def _step_alt(y, eps):
    n = y.shape[0]
    u = np.empty(n)
    reg = 1e300
    t = 0.0
    for i in range(n):
        w = 1.0 + eps * y[i]
        if abs(w) < reg:
            reg = abs(w)
        u[i] = y[i] / w
        t += u[i]
    out = np.empty(n)
    for i in range(n):
        ri = 1.0 - eps * (t - u[i])
        if abs(ri) < reg:
            reg = abs(ri)
        out[i] = u[i] / ri
    return out, reg


# Indexed by map dispatch code.
_STEPS = (_step_euler_hk, _step_cosine, _step_kov_sqrt, _step_kov_pullback,
          _step_gen_hk, _step_alt)


def map_step(code, y, eps):
    """One step of the map with dispatch `code`: (new_state, regularity)."""
    return _STEPS[code](y, eps)


def _coincidence_depth(y, even):
    # Smallest relative pairwise separation; with `even` the comparison is on
    # magnitudes (systems whose invariants depend on squares).
    n = y.shape[0]
    m = 1e300
    for i in range(n):
        for j in range(i + 1, n):
            sc = abs(y[i]) + abs(y[j])
            if sc == 0.0:
                return 0.0
            if even:
                d = abs(abs(y[i]) - abs(y[j])) / sc
            else:
                d = abs(y[i] - y[j]) / sc
            if d < m:
                m = d
    return m


def map_orbit(code, y0, eps, nsteps, theta, resbound, coin_tol, even, cap):
    """Iterate a map, stopping at the first untrustworthy step.

    Stops when the step regularity drops below `theta`, when
    |eps|*max|y| exceeds `resbound`, when the state comes within `coin_tol`
    (relative) of a coincidence variety, when any coordinate exceeds `cap`,
    or on non-finite values.  Returns (trajectory, last_step): states
    0..last_step are recorded, and last_step < nsteps means early stop.
    """
    step = _STEPS[code]
    n = y0.shape[0]
    traj = np.empty((nsteps + 1, n))
    traj[0] = y0
    y = y0.copy()
    end = nsteps
    aeps = abs(eps)
    for k in range(nsteps):
        ynew, reg = step(y, eps)
        finite = True
        big = 0.0
        for i in range(n):
            v = ynew[i]
            if not np.isfinite(v):
                finite = False
                break
            a = abs(v)
            if a > big:
                big = a
        if (not finite) or big > cap or reg < theta or aeps * big > resbound \
                or (coin_tol > 0.0 and _coincidence_depth(ynew, even) < coin_tol):
            end = k
            break
        traj[k + 1] = ynew
        y = ynew
    return traj[: end + 1], end


def esp_all(y):
    """All elementary symmetric polynomials e_0..e_N of y, by the stable
    one-pass recurrence (coefficients of prod(1 + t*y_i))."""
    n = y.shape[0]
    e = np.zeros(n + 1)
    e[0] = 1.0
    for i in range(n):
        for j in range(i + 1, 0, -1):
            e[j] += y[i] * e[j - 1]
    return e


def _rhs_scaled_quadratic(y, alpha, s_coeffs):
    # dy_i/dt = y_i (s - alpha y_i), s = sum_k s_coeffs[k-1] e_k(y)
    e = esp_all(y)
    s = 0.0
    for k in range(s_coeffs.shape[0]):
        s += s_coeffs[k] * e[k + 1]
    n = y.shape[0]
    out = np.empty(n)
    for i in range(n):
        out[i] = y[i] * (s - alpha * y[i])
    return out


def _rhs_product_complement(x):
    n = x.shape[0]
    out = np.empty(n)
    for i in range(n):
        p = 1.0
        for j in range(n):
            if j != i:
                p *= x[j]
        out[i] = p
    return out


def _rhs_quadratic_field(coeffs, y):
    n = y.shape[0]
    out = np.empty(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            for k in range(j, n):
                c = coeffs[i, j, k]
                if c != 0.0:
                    acc += c * y[j] * y[k]
        out[i] = acc
    return out


def rk4_orbit(rhs, y0, dt, nsteps, cap):
    """Classical fixed-step RK4 trajectory of dy/dt = rhs(y).  Returns
    (trajectory, last_step); last_step < nsteps means the state left the
    finite region |y_i| <= cap."""
    n = y0.shape[0]
    traj = np.empty((nsteps + 1, n))
    traj[0] = y0
    y = y0.copy()
    end = nsteps
    for k in range(nsteps):
        k1 = rhs(y)
        k2 = rhs(y + (0.5 * dt) * k1)
        k3 = rhs(y + (0.5 * dt) * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ok = True
        for i in range(n):
            v = y[i]
            if not np.isfinite(v) or abs(v) > cap:
                ok = False
                break
        if not ok:
            end = k
            break
        traj[k + 1] = y
    return traj[: end + 1], end
