"""Central finite differences with steps h_i = DEFAULT_SCALE*(1+|y_i|)."""
import numpy as np

DEFAULT_SCALE = 1e-6


def central_jacobian(f, y) -> np.ndarray:
    """Jacobian of a vector map f at y as a C-ordered (M, N) array.

    Column i is the central difference (f(y + h_i e_i) - f(y - h_i e_i)) /
    (2 h_i), formed elementwise in floats.  f gets each stencil point as a
    list of floats and returns M floats as a list or a 1-D array; it is
    called 2N times and never at y itself.
    """
    y = np.asarray(y, dtype=float).tolist()
    cols = []
    for i, yi in enumerate(y):
        h = DEFAULT_SCALE * (1.0 + abs(yi))
        up = y.copy()
        dn = y.copy()
        up[i] += h
        dn[i] -= h
        h2 = 2.0 * h
        cols.append([(p - q) / h2 for p, q in zip(f(up), f(dn))])
    return np.array(cols).T.copy()


def central_gradient(f, y) -> np.ndarray:
    """Gradients of the functions f evaluates, at a point y of shape (N,) or
    at each point of a (P, N) stack, from one call of f.

    f gets one stencil of 2N rows per point, (2N, N) at a point and
    (P*2N, N) for a stack; a point's rows i and N + i are y + h_i e_i and
    y - h_i e_i.  f returns values of shape (..., 2N) or (..., P*2N), one row
    per function, and the gradients come back with shape (..., N) or
    (..., P, N).  When f evaluates each row on its own, a point of a stack
    gets the bits it gets alone.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    h = DEFAULT_SCALE * (1.0 + np.abs(y))
    stencil = np.repeat(y[..., None, :], 2 * n, axis=-2)
    i = np.arange(n)
    stencil[..., i, i] += h
    stencil[..., n + i, i] -= h
    v = np.asarray(f(stencil.reshape(-1, n)), dtype=float)
    v = v.reshape(v.shape[:-1] + y.shape[:-1] + (2 * n,))
    return (v[..., :n] - v[..., n:]) / (2.0 * h)
