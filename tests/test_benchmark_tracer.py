"""The traced benchmark run (`perfbench/tracing.py`) replaces the package
functions its `TARGETS` table names, and fails on a name the package no
longer has.  These tests load the tracer by path and install it on the
package, so a renamed or removed target fails here."""
import importlib.util
from pathlib import Path

import kovtop.cli  # noqa: F401  (every module the tracer patches)
from kovtop import maps

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_kovtop_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_package_and_removes_every_wrapper():
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        names = tracing.installed_wrappers()
        assert "kovtop.kernels.map_step" in names
        assert "kovtop.kernels.map_orbit" in names
        # the wrapped kernels still run, and count an orbit's steps
        states, end = maps.gen_hk(4).orbit([0.2, 0.3, 0.4, 0.5], 1e-3, 5)
        assert end == 5
        maps.euler_hk().step([0.3, 0.4, 0.5], 0.01)
    finally:
        tracer.remove()
    assert tracing.installed_wrappers() == []
    stats = tracing.span_stats(tracer.spans)
    assert stats["kernels.map_orbit"]["work"] == 5
    assert stats["kernels.map_step"]["calls"] == 1
