"""Central finite differences with per-coordinate steps h_i = scale*(1+|y_i|)."""
import numpy as np

DEFAULT_SCALE = 1e-6


def central_jacobian(f, y, scale: float = DEFAULT_SCALE) -> np.ndarray:
    """Jacobian of a vector map f at y; column i from a central difference."""
    y = np.asarray(y, dtype=float)
    f0 = np.asarray(f(y), dtype=float)
    J = np.empty((f0.shape[0], y.shape[0]))
    for i in range(y.shape[0]):
        h = scale * (1.0 + abs(y[i]))
        up = y.copy()
        dn = y.copy()
        up[i] += h
        dn[i] -= h
        J[:, i] = (np.asarray(f(up), dtype=float) - np.asarray(f(dn), dtype=float)) / (2.0 * h)
    return J


def central_gradient(f, y, scale: float = DEFAULT_SCALE) -> np.ndarray:
    """Gradients at y of the functions f evaluates, from one call of f.

    f gets the (2N, N) stencil whose rows i and N + i are y + h_i e_i and
    y - h_i e_i, and returns values of shape (..., 2N), one row per function;
    the gradients come back with shape (..., N).
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    h = scale * (1.0 + np.abs(y))
    stencil = np.repeat(y[None, :], 2 * n, axis=0)
    i = np.arange(n)
    stencil[i, i] += h
    stencil[n + i, i] -= h
    v = np.asarray(f(stencil), dtype=float)
    return (v[..., :n] - v[..., n:]) / (2.0 * h)
