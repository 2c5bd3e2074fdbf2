"""The traced benchmark run (`perfbench/tracing.py`) replaces the package
functions its `TARGETS` table names, and fails on a name the package no
longer has.  These tests load the tracer by path and install it on the
package, so a renamed or removed target fails here."""
import importlib.util
from pathlib import Path

import pytest

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
        states, end, _ = maps.gen_hk(4).orbit([0.2, 0.3, 0.4, 0.5], 1e-3, 5)
        assert end == 5
        maps.euler_hk().step([0.3, 0.4, 0.5], 0.01)
    finally:
        tracer.remove()
    assert tracing.installed_wrappers() == []
    stats = tracing.span_stats(tracer.spans)
    assert stats["kernels.map_orbit"]["work"] == 5
    assert stats["kernels.map_step"]["calls"] == 1


def _traced(argv):
    tracing = _tracing()
    with tracing.Tracer() as tracer:
        assert kovtop.cli.main(argv) in (0, 2)
    return tracing, tracer.spans


@pytest.mark.parametrize("target", [["--flow", "gen-kov"], ["--map", "gen-hk"]],
                         ids=["flow", "map"])
def test_drift_computes_one_orbit_per_start(capsys, target):
    tracing, spans = _traced(["drift"] + target + [
        "--n", "4", "--eps", "0.001", "--steps", "8", "--starts", "2"])
    capsys.readouterr()
    assert tracing.orbits_per_start(spans)[0] == 1.0
    # a flow's orbit runs its loop directly, not through kernels.map_orbit
    names = {s[tracing.ID]: s[tracing.NAME] for s in spans}
    assert not [s for s in spans if s[tracing.NAME] == "kernels.map_orbit"
                and names.get(s[tracing.PARENT]) == "kernels.rk4_orbit"]


def test_map_command_records_one_discrete_map_orbit(capsys):
    tracing, spans = _traced(["map", "--map", "gen-hk", "--n", "4", "--y0",
                              "0.2,0.3,0.4,0.5", "--eps", "1e-3", "--steps", "5"])
    capsys.readouterr()
    assert [s[tracing.NAME] for s in spans].count("maps.DiscreteMap.orbit") == 1
