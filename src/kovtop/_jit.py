"""Numba toggle.

Hot kernels compile with numba unless KOVTOP_NUMBA is set to 0/false/off
(or numba is not importable), in which case the pure-numpy twins run.
"""
import os

_flag = os.environ.get("KOVTOP_NUMBA", "1").strip().lower()
_requested = _flag not in ("0", "false", "no", "off")

try:
    from numba import njit as _njit
    from numba.extending import register_jitable as _register_jitable

    # numpy error model: division by zero yields inf/nan instead of raising,
    # matching the pure-numpy twins (singularities are detected, not thrown)
    register_jitable = _register_jitable(error_model="numpy")
    HAVE_NUMBA = True
except ImportError:  # numba is the optional `jit` extra
    HAVE_NUMBA = False

    def register_jitable(fn):
        return fn

JIT_ENABLED = _requested and HAVE_NUMBA


def jit_compile(fn):
    """Return the numba-compiled version of fn, or fn itself on the pure path."""
    if JIT_ENABLED:
        return _njit(cache=True, error_model="numpy")(fn)
    return fn
