import numpy as np


def admissible_states(n, dim, seed, low=0.1, high=2.0, min_sep=1e-2):
    """Random states with comfortably separated coordinates."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        y = rng.uniform(low, high, dim)
        if (np.abs(y[:, None] - y[None, :]) + np.eye(dim)).min() >= min_sep:
            out.append(y)
    return out
