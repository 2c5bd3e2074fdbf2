import contextlib

import numpy as np
import pytest

from kovtop import kernels, maps


def admissible_states(n, dim, seed, low=0.1, high=2.0, min_sep=1e-2):
    """Random states with comfortably separated coordinates."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        y = rng.uniform(low, high, dim)
        if (np.abs(y[:, None] - y[None, :]) + np.eye(dim)).min() >= min_sep:
            out.append(y)
    return out


@contextlib.contextmanager
def loop_constants(**values):
    """Within the block, `kernels`' loop constants named in `values`
    (STRAIN_FLOOR=..., RESOLUTION_BOUND=..., ...) take those values; a map
    built there by `fresh_map` binds them in its orbit loop."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in values.items():
            patch.setattr(kernels, name, value)
        yield


def fresh_map(name, n):
    """`maps.get_map(name, n)` built afresh, past its builder's cache, so its
    orbit loop binds `kernels`' loop constants as they are now."""
    if name in maps._FIXED_DIM:
        return maps._FIXED_DIM[name].__wrapped__()
    return maps._ANY_DIM[name].__wrapped__(n)
