"""The pure-numpy kernels against independent references."""
from itertools import combinations

import numpy as np

from kovtop import kernels


def test_esp_kernel_against_bruteforce():
    rng = np.random.default_rng(73)
    y = rng.uniform(-1.5, 1.5, 6)
    e = kernels.esp_all(y)
    for k in range(7):
        brute = sum(np.prod([y[i] for i in c]) for c in combinations(range(6), k))
        assert abs(e[k] - brute) < 1e-12 * (1 + abs(brute))


def test_coincidence_depth():
    assert kernels._coincidence_depth(np.array([1.0, 1.0, 2.0]), False) == 0.0
    assert kernels._coincidence_depth(np.array([1.0, -1.0, 2.0]), True) == 0.0
    d = kernels._coincidence_depth(np.array([1.0, 2.0, 4.0]), False)
    assert abs(d - 1.0 / 3.0) < 1e-15
