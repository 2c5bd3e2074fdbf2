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
    """Gradients at y of the functions f evaluates, from one call of f.

    f gets the (2N, N) stencil whose rows i and N + i are y + h_i e_i and
    y - h_i e_i, and returns values of shape (..., 2N), one row per function;
    the gradients come back with shape (..., N).
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    h = DEFAULT_SCALE * (1.0 + np.abs(y))
    stencil = np.repeat(y[None, :], 2 * n, axis=0)
    i = np.arange(n)
    stencil[i, i] += h
    stencil[n + i, i] -= h
    v = np.asarray(f(stencil), dtype=float)
    return (v[..., :n] - v[..., n:]) / (2.0 * h)
