import argparse
import contextlib
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import jsonschema
except ImportError:
    jsonschema = None

from kovtop import cli, kernels
from kovtop.cli import build_parser, main
from kovtop.core import TrajectoryRecord
from kovtop.errors import ConfigError
from kovtop.flows import get_flow, rk4_states
from kovtop.invariants import IDENTITIES, claimed_invariants, evaluate, registry
from kovtop.maps import get_map
from reference_writers import reference_csv, reference_json
from test_readme_examples import EXAMPLES

SCHEMA_DIR = None


def _schema(name):
    global SCHEMA_DIR
    if SCHEMA_DIR is None:
        import kovtop
        from pathlib import Path
        SCHEMA_DIR = Path(kovtop.__file__).parent / "schemas"
    with open(SCHEMA_DIR / f"{name}.schema.json", encoding="utf-8") as fh:
        return json.load(fh)


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_map_command_diagonal(capsys):
    rc, out = _run(capsys, ["map", "--map", "euler-hk", "--y0", "1,1,1",
                            "--eps", "0.1", "--steps", "1"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "step,t,y_1,y_2,y_3"
    last = lines[-1].split(",")
    assert last[0] == "1"
    assert float(last[1]) == 0.2          # TWO_EPS scale
    assert all(abs(float(v) - 1.25) < 1e-14 for v in last[2:])


def test_map_command_json_schema(capsys):
    rc, out = _run(capsys, ["map", "--map", "gen-hk", "--n", "4", "--y0",
                            "1,2,3,4", "--eps", "0.05", "--steps", "3",
                            "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["status"] == "ok"
    assert len(data["rows"]) == 4
    if jsonschema is not None:
        jsonschema.validate(data, _schema("trajectory"))


def test_simulate_zero_time(capsys):
    rc, out = _run(capsys, ["simulate", "--flow", "kov3", "--y0", "1,1,1",
                            "--t-end", "0", "--dt", "0.001"])
    assert rc == 0
    assert out.strip().split("\n")[1].startswith("0,0,1,1,1")


def test_simulate_with_invariants_json(capsys):
    rc, out = _run(capsys, ["simulate", "--flow", "kov3", "--y0",
                            "0.1,0.2,0.3", "--t-end", "0.1", "--dt", "0.01",
                            "--with-invariants", "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["status"] == "ok"
    row = data["rows"][0]
    assert "K23" in row["invariants"]
    if jsonschema is not None:
        jsonschema.validate(data, _schema("trajectory"))


def test_drift_command_csv(capsys):
    rc, out = _run(capsys, ["drift", "--map", "gen-hk", "--n", "4", "--y0",
                            "1,2,3,4", "--eps", "0.01", "--steps", "10000"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "map,invariant,eps,steps,max_rel_drift,first_blowup_step"
    assert len(lines) > 1
    for line in lines[1:]:
        drift = float(line.split(",")[4])
        assert drift < 1e-10


def test_drift_command_flow_target(capsys):
    rc, out = _run(capsys, ["drift", "--flow", "kov3", "--n", "3", "--y0",
                            "0.11,0.23,0.17", "--eps", "0.001", "--steps",
                            "1000"])
    assert rc == 0
    for line in out.strip().split("\n")[1:]:
        assert float(line.split(",")[4]) < 1e-8


def test_drift_command_spec_example(capsys):
    rc, out = _run(capsys, ["drift", "--map", "gen-hk", "--n", "4",
                            "--eps", "0.01", "--steps", "10000",
                            "--starts", "20", "--seed", "1", "--format",
                            "json"])
    assert rc == 0
    data = json.loads(out)
    assert all(r["max_rel_drift"] < 1e-10 for r in data["reports"])
    if jsonschema is not None:
        jsonschema.validate(data, _schema("drift"))


def test_check_n4_poly(capsys):
    rc, out = _run(capsys, ["check", "--identity", "n4-poly", "--trials",
                            "100", "--seed", "7", "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["max_residual"] < 1e-13
    if jsonschema is not None:
        jsonschema.validate(data, _schema("check"))


@pytest.mark.parametrize("identity", ["s-relations", "r-reciprocity",
                                      "step-ratio", "d-sum", "r-product",
                                      "sqrt-comp", "engine"])
def test_check_identities(capsys, identity):
    rc, out = _run(capsys, ["check", "--identity", identity, "--n", "4",
                            "--trials", "25", "--seed", "3", "--format",
                            "json"])
    assert rc == 0
    assert json.loads(out)["max_residual"] < 1e-12


def test_check_phi_eq(capsys):
    rc, out = _run(capsys, ["check", "--identity", "phi-eq", "--n", "3",
                            "--trials", "20", "--seed", "5", "--format",
                            "json"])
    assert rc == 0
    assert json.loads(out)["max_residual"] < 1e-11


def test_convergence_command(capsys):
    rc, out = _run(capsys, ["convergence", "--map", "euler-hk", "--y0",
                            "0.3,0.4,0.5", "--total-time", "0.2",
                            "--eps-list", "0.01,0.005,0.0025", "--format",
                            "json"])
    assert rc == 0
    data = json.loads(out)
    assert 1.9 < data["slope"] < 2.1
    if jsonschema is not None:
        jsonschema.validate(data, _schema("convergence"))


def test_convergence_single_eps_has_null_slope(capsys):
    rc, out = _run(capsys, ["convergence", "--map", "euler-hk", "--y0",
                            "0.3,0.4,0.5", "--total-time", "0.2",
                            "--eps-list", "0.01", "--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["slope"] is None
    assert len(data["rows"]) == 1


def test_independence_command(capsys):
    rc, out = _run(capsys, ["independence", "--family", "cross-ratio", "--n",
                            "4", "--points", "5", "--seed", "2", "--format",
                            "json"])
    assert rc == 0
    data = json.loads(out)
    assert data["ranks"] == [2] * 5
    if jsonschema is not None:
        jsonschema.validate(data, _schema("independence"))


@pytest.mark.parametrize("argv", [
    ["check", "--identity", "engine", "--n", "3", "--eps", "1e200"],
    ["convergence", "--map", "cosine", "--y0", "9,9,9", "--eps-list",
     "0.1,0.05"],
    ["independence", "--family", "genhk4-phi", "--n", "4", "--points", "10",
     "--eps", "0.5"],
], ids=["check", "convergence", "independence"])
def test_aborted_json_matches_the_aborted_schema(capsys, argv):
    # an abort writes {"status": "aborted", "error": ...}, not the command's
    # own output, so it validates against aborted.schema.json alone
    assert main(argv + ["--format", "json"]) == 2
    out = capsys.readouterr()
    data = json.loads(out.out)
    assert out.err == f"aborted: {data['error']}\n"
    assert jsonschema is not None
    schema = _schema("aborted")
    jsonschema.validate(data, schema)
    for bad in ({**data, "status": "ok"}, {**data, "trials": 3},
                {"status": "aborted"}):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)


def test_invalid_config_exits_one(capsys):
    assert main(["map", "--map", "not-a-map", "--y0", "1,1,1", "--eps",
                 "0.1", "--steps", "1"]) == 1
    assert main(["map", "--map", "euler-hk", "--y0", "1,1", "--eps", "0.1",
                 "--steps", "1"]) == 1
    assert main(["drift", "--map", "gen-hk", "--eps", "0.1", "--steps",
                 "5"]) == 1


@pytest.mark.parametrize("flow", ["kov3", "euler3"])
def test_drift_three_dimensional_flow_needs_no_dimension(capsys, flow):
    rc, out = _run(capsys, ["drift", "--flow", flow, "--eps", "0.001",
                            "--steps", "8", "--starts", "2"])
    assert rc == 0
    assert len(out.strip().split("\n")) > 1


@pytest.mark.parametrize("flow", ["gen-kov", "gen-euler"])
def test_drift_general_flow_without_dimension_exits_one(capsys, flow):
    rc = main(["drift", "--flow", flow, "--eps", "0.001", "--steps", "8"])
    assert rc == 1
    assert "needs an explicit dimension" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["euler-hk", "cosine", "kov-sqrt",
                                  "kov-pullback"])
def test_drift_three_dimensional_map_needs_no_dimension(capsys, name):
    argv = ["drift", "--map", name, "--eps", "0.001", "--steps", "8",
            "--starts", "2", "--seed", "3"]
    rc, out = _run(capsys, argv)
    assert rc == 0
    assert len(out.strip().split("\n")) > 1
    assert _run(capsys, argv + ["--n", "3"]) == (0, out)


@pytest.mark.parametrize("name", ["gen-hk", "alt-map"])
def test_drift_general_map_without_dimension_exits_one(capsys, name):
    rc = main(["drift", "--map", name, "--eps", "0.001", "--steps", "8"])
    assert rc == 1
    assert "needs an explicit dimension" in capsys.readouterr().err


# each command at N = 4 without --n: the four coordinates of --y0 fix it
@pytest.mark.parametrize("argv, n4_mark", [
    (["simulate", "--flow", "gen-kov", "--t-end", "0.01", "--dt", "0.001"],
     "step,t,y_1,y_2,y_3,y_4\n"),
    (["simulate", "--flow", "gen-euler", "--t-end", "0.01", "--dt", "0.001"],
     "step,t,y_1,y_2,y_3,y_4\n"),
    (["map", "--map", "alt-map", "--eps", "0.01", "--steps", "3"],
     "step,t,y_1,y_2,y_3,y_4\n"),
    (["drift", "--flow", "gen-kov", "--eps", "0.001", "--steps", "8"],
     "gen-kov,P1,"),
    (["drift", "--map", "gen-hk", "--eps", "0.01", "--steps", "8"],
     "gen-hk,K12_hk4p1,"),
    (["convergence", "--map", "gen-hk", "--eps-list", "0.01,0.005"],
     "eps,error\n"),
], ids=["simulate-gen-kov", "simulate-gen-euler", "map", "drift-flow",
        "drift-map", "convergence"])
def test_dimension_is_n_else_the_length_of_y0(capsys, argv, n4_mark):
    def run(extra):
        rc = main(argv + ["--y0", "0.2,0.3,0.4,0.5"] + extra)
        out = capsys.readouterr()
        return rc, out.out, out.err

    by_y0 = run([])
    assert by_y0[0] == 0 and n4_mark in by_y0[1]
    assert run(["--n", "4"]) == by_y0
    assert run(["--n", "5"]) == (1, "", "error: --y0 must list 5 coordinates\n")


@pytest.mark.parametrize("starts", ["0", "-3"])
def test_drift_without_starts_exits_one(capsys, starts):
    rc = main(["drift", "--map", "gen-hk", "--n", "4", "--eps", "0.01",
               "--steps", "8", "--starts", starts])
    assert rc == 1
    assert "--starts" in capsys.readouterr().err


# the RK4 orbits of these starts overflow before the pole cap stops them
_GEN_EULER_DRIFT = """\
map,invariant,eps,steps,max_rel_drift,first_blowup_step
gen-euler,E12,0.001,500,0.00061881680978353537,209
gen-euler,E13,0.001,500,0.00150083020449165,209
gen-euler,E14,0.001,500,0.0015002773807617172,209
gen-euler,E23,0.001,500,0.00066174137897819462,209
gen-euler,E24,0.001,500,0.00061963332184794659,209
gen-euler,E34,0.001,500,0.00062014769237100074,209
"""


def test_flow_drift_keeps_numpy_warnings_off_stderr(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["drift", "--flow", "gen-euler", "--n", "4", "--eps",
                   "0.001", "--steps", "500", "--starts", "5"])
    out = capsys.readouterr()
    assert rc == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in out.err
    assert out.out == _GEN_EULER_DRIFT


@pytest.mark.parametrize("flow", ["kov3", "euler3"])
@pytest.mark.parametrize("argv", [
    ["drift", "--n", "5", "--eps", "0.001", "--steps", "8", "--starts", "1"],
    ["simulate", "--n", "4", "--y0", "0.1,0.2,0.3", "--t-end", "0.01",
     "--dt", "0.001"],
], ids=["drift", "simulate"])
def test_three_dimensional_flow_rejects_other_dimension(capsys, flow, argv):
    rc = main(argv[:1] + ["--flow", flow] + argv[1:])
    out = capsys.readouterr()
    assert rc == 1
    assert out.out == ""
    assert "three-dimensional" in out.err


_MAP = ["map", "--map", "gen-hk", "--n", "4", "--y0", "1,2,3,4"]
_SIMULATE = ["simulate", "--flow", "kov3", "--y0", "0.1,0.2,0.3"]
_DRIFT = ["drift", "--map", "gen-hk", "--n", "4", "--steps", "8"]
_CONVERGENCE = ["convergence", "--map", "euler-hk", "--y0", "0.3,0.4,0.5"]


@pytest.mark.parametrize("argv, message", [
    (_MAP + ["--eps", "0.01", "--steps", "-1"], "--steps must be >= 0"),
    (_MAP + ["--eps", "nan", "--steps", "2"], "--eps"),
    (_MAP + ["--eps", "inf", "--steps", "2"], "--eps"),
    (_SIMULATE + ["--t-end", "1", "--dt", "nan"], "--dt"),
    (_SIMULATE + ["--t-end", "inf", "--dt", "0.001"], "--t-end"),
    (_SIMULATE + ["--t-end", "1", "--dt", "0.001", "--alpha", "nan"], "--alpha"),
    (_SIMULATE + ["--t-end", "1", "--dt", "0"], "dt must be positive"),
    (_SIMULATE + ["--t-end", "1", "--dt", "0.003"], "does not divide"),
    (_DRIFT + ["--eps=-inf"], "--eps"),
    (_DRIFT + ["--eps", "0.01", "--alpha", "inf"], "--alpha"),
    (["check", "--identity", "d-sum", "--eps", "nan"], "--eps"),
    (["independence", "--family", "cross-ratio", "--n", "4", "--eps", "nan"],
     "--eps"),
    (_CONVERGENCE + ["--eps-list", "0.01,nan"], "--eps-list"),
    # a non-finite start is bad input, not a runtime abort
    (["simulate", "--flow", "kov3", "--y0", "nan,0.2,0.3", "--t-end", "0.01",
      "--dt", "0.001"], "--y0"),
    (["map", "--map", "euler-hk", "--y0", "0.1,inf,0.3", "--eps", "0.01",
      "--steps", "2"], "--y0"),
    (["drift", "--flow", "kov3", "--y0", "0.1,nan,0.3", "--eps", "0.001",
      "--steps", "8"], "--y0"),
    (["convergence", "--map", "euler-hk", "--y0", "nan,1,1", "--eps-list",
      "0.01"], "--y0"),
    # the compiled RK4 step grows with N
    (["simulate", "--flow", "gen-euler", "--n", "301", "--y0", "0.1",
      "--t-end", "0.01", "--dt", "0.001"], "MAX_FLOW_DIM = 300"),
    (["drift", "--flow", "gen-kov", "--n", "301", "--eps", "0.001",
      "--steps", "8"], "MAX_FLOW_DIM = 300"),
    (_CONVERGENCE + ["--eps-list", "0.01", "--total-time", "inf"],
     "--total-time"),
    (_CONVERGENCE + ["--eps-list", "0.03", "--format", "json"],
     "eps=0.03 does not tile total time 0.2"),
    (["drift", "--map", "gen-hk", "--n", "4", "--eps", "0.01", "--steps",
      "0", "--format", "json"], "steps must be >= 1"),
    (["independence", "--family", "cross-ratio", "--n", "4", "--points", "0"],
     "--points must be >= 1"),
    (["independence", "--family", "cross-ratio", "--n", "4", "--points",
      "-1"], "--points must be >= 1"),
    # alpha = N: the power-law integrals divide by N - alpha
    (["simulate", "--flow", "gen-kov", "--n", "4", "--alpha", "4", "--y0",
      "0.1,0.2,0.3,0.4", "--t-end", "1", "--dt", "0.1"],
     "alpha must differ from N"),
    (["drift", "--flow", "gen-kov", "--n", "3", "--alpha", "3", "--eps",
      "0.001", "--steps", "8"], "alpha must differ from N"),
    (["independence", "--family", "flow-power", "--n", "4", "--alpha", "4"],
     "alpha must differ from N"),
    # an any-N identity below N = 3 (N < 1 died in the start sampler)
    (["check", "--identity", "r-product", "--n", "0", "--trials", "3"],
     "r-product needs N >= 3, not N = 0"),
    (["check", "--identity", "s-relations", "--n", "0", "--trials", "3"],
     "s-relations needs N >= 3"),
    (["check", "--identity", "engine", "--n", "0", "--trials", "3"],
     "engine needs N >= 3"),
    (["check", "--identity", "step-ratio", "--n", "-1", "--trials", "3"],
     "step-ratio needs N >= 3, not N = -1"),
    (["check", "--identity", "r-reciprocity", "--n", "2", "--trials", "3"],
     "r-reciprocity needs N >= 3"),
    # a step count above flows.MAX_STEPS, rejected before any loop starts
    (_MAP + ["--eps", "0.01", "--steps", "10000001"], "MAX_STEPS"),
    (["drift", "--map", "gen-hk", "--n", "4", "--eps", "0.01", "--steps",
      "10000001"], "MAX_STEPS"),
], ids=["map-steps", "map-eps-nan", "map-eps-inf", "simulate-dt",
        "simulate-t-end", "simulate-alpha", "simulate-dt-zero",
        "simulate-dt-not-dividing", "drift-eps", "drift-alpha",
        "check-eps", "independence-eps", "convergence-eps-list",
        "simulate-y0-nan", "map-y0-inf", "drift-y0-nan", "convergence-y0-nan",
        "simulate-n-above-max", "drift-flow-n-above-max",
        "convergence-total-time", "convergence-eps-list-not-tiling",
        "drift-steps-zero", "independence-points-zero",
        "independence-points-negative", "simulate-alpha-n",
        "drift-flow-alpha-n", "independence-alpha-n",
        "check-r-product-n-zero", "check-s-relations-n-zero",
        "check-engine-n-zero", "check-step-ratio-n-negative",
        "check-r-reciprocity-n-two", "map-steps-above-max",
        "drift-steps-above-max"])
def test_invalid_numeric_arguments_exit_one(capsys, argv, message):
    rc = main(argv)
    out = capsys.readouterr()
    assert rc == 1
    assert out.out == ""
    assert out.err.startswith("error:") and message in out.err


@pytest.mark.parametrize("argv, alpha", [
    (_DRIFT + ["--eps", "0.01", "--starts", "2"], "4"),
    (_DRIFT + ["--eps", "0.01", "--starts", "2", "--format", "json"], "1.3"),
    (["drift", "--flow", "kov3", "--eps", "0.001", "--steps", "8", "--starts",
      "2"], "3"),
    (["drift", "--flow", "gen-euler", "--n", "4", "--eps", "0.001", "--steps",
      "8", "--starts", "2"], "4"),
    (_SIMULATE + ["--t-end", "0.05", "--dt", "0.01", "--with-invariants"],
     "3"),
], ids=["drift-map-alpha-n", "drift-map-alpha", "drift-kov3-alpha-n",
        "drift-gen-euler-alpha-n", "simulate-kov3-alpha-n"])
def test_alpha_reaches_gen_kov_only(capsys, argv, alpha):
    # --alpha equal to N is an error for gen-kov alone (above); every other
    # target runs as it does without --alpha
    def run(argv):
        rc = main(argv)
        out = capsys.readouterr()
        return rc, out.out, out.err

    plain = run(argv)
    assert plain[0] == 0 and plain[1]
    assert run(argv + ["--alpha", alpha]) == plain


@pytest.mark.parametrize("family, n, alpha", [
    ("cross-ratio", "4", "4"), ("cross-ratio", "5", "1.3"),
    ("kov-poly", "3", "3"), ("kov-hk-eps", "3", "3"), ("euler-poly", "5", "5"),
    ("genhk4-phi", "4", "4"), ("quartet-sqrt", "4", "-0.5"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_alpha_reaches_the_flow_power_family_only(capsys, family, n, alpha,
                                                  fmt):
    # in `independence`, --alpha equal to N is an error for a flow-power
    # family alone (above); every other family prints what it prints
    # without --alpha
    def run(argv):
        rc = main(argv)
        out = capsys.readouterr()
        return rc, out.out, out.err

    argv = ["independence", "--family", family, "--n", n, "--points", "2",
            "--format", fmt]
    plain = run(argv)
    assert plain[0] == 0 and plain[1]
    assert run(argv + ["--alpha", alpha]) == plain


@pytest.mark.parametrize("argv,err", [
    (_MAP + ["--eps", "0.01", "--steps", "10000001"],
     "error: steps=10000001 gives 10000001 steps, more than MAX_STEPS = 1e+07\n"),
    (_CONVERGENCE + ["--eps-list", "1e-300"],
     "error: eps=1e-300 gives 1e+299 steps, more than MAX_STEPS = 1e+07\n"),
], ids=["just-above", "far-above"])
def test_step_count_above_max_never_reads_as_the_bound(capsys, argv, err):
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == err


def test_check_identity_choices_are_the_identity_table():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    identity = next(a for a in sub.choices["check"]._actions
                    if a.dest == "identity")
    assert identity.choices == tuple(IDENTITIES)


@pytest.mark.parametrize("n", [5, 6])
def test_phi_eq_rejects_unsupported_dimension(capsys, n):
    rc = main(["check", "--identity", "phi-eq", "--n", str(n), "--trials",
               "5", "--seed", "1"])
    out = capsys.readouterr()
    assert rc == 1
    assert out.out == ""
    assert out.err.startswith("error:") and "phi-eq" in out.err


@pytest.mark.parametrize("tail", [["map", "--map", "gen-hk", "--n", "4",
                                   "--y0", "1,2,3,4", "--steps", "3"],
                                  ["drift", "--map", "gen-hk", "--n", "4",
                                   "--steps", "20", "--starts", "2"]],
                         ids=["map", "drift"])
def test_negative_exponent_value_after_space(capsys, tail):
    assert main(tail + ["--eps=-1e-3"]) == 0
    joined = capsys.readouterr()
    assert main(tail + ["--eps", "-1e-3"]) == 0
    spaced = capsys.readouterr()
    assert spaced.out == joined.out and spaced.out
    assert spaced.err == joined.err == ""


_OUTSIDE = ["drift", "--map", "gen-hk", "--y0=-0.5,0.3,0.4,0.6", "--eps",
            "0.01", "--steps", "50"]


def test_drift_start_outside_domain_ends_window_at_zero(capsys):
    # the start lies outside the positive orthant, the phi family's domain
    rc, out = _run(capsys, _OUTSIDE + ["--format", "json"])
    assert rc == 0
    data = json.loads(out)
    assert jsonschema is not None
    jsonschema.validate(data, _schema("drift"))
    outside = [r for r in data["reports"] if "_hk4p" in r["invariant"]]
    assert len(outside) == 18
    assert all(r["first_blowup_step"] == 0 and r["max_rel_drift"] is None
               for r in outside)
    rc, out = _run(capsys, _OUTSIDE)
    assert rc == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [r[5] for r in rows if "_hk4p" in r[1]] == ["0"] * 18


# parse errors, a mutually exclusive pair, a config error, an abort, and
# successes that do and do not attach invariants
_SEQUENCE = [
    ["map", "--map", "not-a-map", "--y0", "1,1,1", "--eps", "0.1",
     "--steps", "1"],
    ["drift", "--map", "gen-hk", "--flow", "kov3", "--eps", "0.01",
     "--steps", "8"],
    ["simulate", "--flow", "kov3", "--y0", "0.1,0.2,0.3", "--t-end", "0.05",
     "--dt", "0.01", "--with-invariants"],
    ["simulate", "--flow", "kov3", "--y0", "0.1,0.2,0.3", "--t-end", "0.05",
     "--dt", "0.01"],
    _MAP + ["--eps", "-1e-3", "--steps", "3"],
    _DRIFT + ["--eps", "0.01", "--starts", "2", "--format", "json"],
    ["drift", "--flow", "gen-kov", "--n", "4", "--alpha", "4", "--eps",
     "0.001", "--steps", "8"],
    ["independence", "--family", "cross-ratio", "--n", "4", "--points", "2"],
    ["check", "--identity", "d-sum", "--trials", "5", "--format", "json"],
    ["map", "--map", "gen-hk", "--n", "4", "--y0", "1,1,1,1", "--eps", "0.25",
     "--steps", "3"],
    ["map", "--map", "gen-hk", "--n", "4", "--y0", "1,2,3,4", "--steps",
     "2"],
]


def test_repeated_main_calls_share_one_parser(capsys):
    def run(argv):
        rc = main(argv)
        out = capsys.readouterr()
        return rc, out.out, out.err

    fresh = []
    for argv in _SEQUENCE:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert {rc for rc, _, _ in fresh} == {0, 1, 2}
    build_parser.cache_clear()
    shared = [run(argv) for _ in range(2) for argv in _SEQUENCE]
    assert build_parser.cache_info().misses == 1
    assert shared == fresh * 2


def test_module_entry_point_matches_in_process_main(capsys):
    argv = ["map", "--map", "euler-hk", "--y0", "1,1,1", "--eps", "0.1",
            "--steps", "1"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "kovtop.cli", *argv],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want.encode()


def test_singular_abort_exits_two(capsys):
    # eps = 0.25 on the diagonal is exactly the singular variety of gen-hk
    rc = main(["map", "--map", "gen-hk", "--n", "4", "--y0", "1,1,1,1",
               "--eps", "0.25", "--steps", "3"])
    out = capsys.readouterr()
    assert rc == 2
    assert "step,t" in out.out          # partial output still written


# eps = 1 makes a first-step denominator exactly 0.0: d_1 = 1 - eps*(-4*y_1 + s)
# of gen-hk, and 1 + eps*y_1 of alt-map
_ZERO_DENOMINATOR = {
    "gen-hk": ["--map", "gen-hk", "--n", "4", "--y0", "0,0,0,1"],
    "alt-map": ["--map", "alt-map", "--n", "3", "--y0=-1,0.5,0.3"],
}


@pytest.mark.parametrize("name, row0", [("gen-hk", "0,0,0,0,0,1"),
                                        ("alt-map", "0,0,-1,0.5,0.29999999999999999")])
def test_exact_zero_denominator_stops_orbit(capsys, name, row0):
    rc = main(["map"] + _ZERO_DENOMINATOR[name] + ["--eps", "1", "--steps", "3"])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out.split("\n")[1:] == [row0, ""]
    assert out.err == "singular stop at step 1\n"


@pytest.mark.parametrize("argv, message", [
    # one step from just below the diagonal pole y = 1/(2 eps) passes 1e12
    (["--map", "gen-hk", "--n", "3", "--y0",
      "4.9999999999995,4.9999999999995,4.9999999999995", "--eps", "0.1"],
     "cap stop at step 1"),
    (["--map", "euler-hk", "--y0", "1e200,1e200,1e200", "--eps", "0.1"],
     "non-finite stop at step 1"),
    (["--map", "cosine", "--y0", "0.5,0.5,2", "--eps", "0.6"],
     "domain stop at step 1"),
    (["--map", "cosine", "--y0", "0.3,0.7,1.1", "--eps", "0.2"],
     "domain stop at step 8"),
])
def test_map_stop_names_its_reason(capsys, argv, message):
    rc = main(["map"] + argv + ["--steps", "300"])
    out = capsys.readouterr()
    assert rc == 2 and out.err == message + "\n"
    assert out.out.startswith("step,t,")


@pytest.mark.parametrize("argv, status", [
    (["--map", "gen-hk", "--n", "3", "--y0",
      "4.9999999999995,4.9999999999995,4.9999999999995", "--eps", "0.1"],
     "blowup"),                                                   # cap
    (["--map", "euler-hk", "--y0", "1e200,1e200,1e200", "--eps", "0.1"],
     "blowup"),                                                   # non-finite
    (_ZERO_DENOMINATOR["alt-map"] + ["--eps", "1"], "singular"),
    (["--map", "cosine", "--y0", "0.5,0.5,2", "--eps", "0.6"], "domain"),
], ids=["cap", "non-finite", "singular", "domain"])
def test_map_json_status_names_its_stop(capsys, argv, status):
    rc = main(["map"] + argv + ["--steps", "3", "--format", "json"])
    out = capsys.readouterr()
    assert rc == 2 and out.err.endswith(" stop at step 1\n")
    data = json.loads(out.out)
    assert data["status"] == status and len(data["rows"]) == 1
    if jsonschema is not None:
        jsonschema.validate(data, _schema("trajectory"))


def test_exact_zero_denominator_ends_drift_window_at_zero(capsys):
    rc = main(["drift"] + _ZERO_DENOMINATOR["alt-map"] + ["--eps", "1", "--steps", "3"])
    out = capsys.readouterr()
    assert rc == 0 and out.err == ""
    rows = [line.split(",") for line in out.out.strip().split("\n")[1:]]
    assert len(rows) == 11
    assert all(r[0] == "alt-map" and r[4:] == ["0", "0"] for r in rows)


def test_domain_abort_exits_two(capsys):
    rc = main(["check", "--identity", "phi-eq", "--n", "3", "--trials", "5",
               "--seed", "1", "--eps", "10.0", "--format", "json"])
    out = capsys.readouterr()
    assert rc == 2
    assert json.loads(out.out)["status"] == "aborted"


def test_output_file_and_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["drift", "--map", "alt-map", "--n", "4", "--eps", "0.01",
            "--steps", "500", "--starts", "5", "--seed", "11"]
    assert main(argv + ["--out", str(p1)]) == 0
    assert main(argv + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


# sha256 of stdout, CSV and JSON, of runs whose every number comes from the
# invariant family formulas: the README drift example, drift of four more
# targets, and trajectories with their invariant columns (the gen-kov start
# outside the positive orthant makes the power-law and square-root columns
# NaN).  Recorded when each invariant was evaluated by its own closure.
_PINNED_OUTPUTS = {
    "drift-readme": (
        ["drift", "--map", "gen-hk", "--n", "4", "--eps", "0.01", "--steps",
         "10000", "--starts", "20", "--seed", "1"],
        "cf88e75c69b58ecd4719c4b6955f4543354e0a5d17be6c7a03d5023693bf11de",
        "998382be6428e355a88e2aa30c95c8642020d0db1e45d0578fbcd638ae8b8236"),
    "drift-alt-map": (
        ["drift", "--map", "alt-map", "--n", "4", "--eps", "0.001", "--steps",
         "200", "--seed", "1"],
        "55e9c5d3c0b16ddb76b575fa3c3833ad845dba75b7dfaa09c0ba1d63b240fab9",
        "4e4b5309b07b24102c2b137e9dd84e09b7ab161bc2d35b1ebf23bd1249f7d926"),
    "drift-euler-hk": (
        ["drift", "--map", "euler-hk", "--n", "3", "--eps", "0.001",
         "--steps", "200", "--seed", "1"],
        "8a0493edd759ac3f80c9142aadd7d69839918aae08c52de2e47e0a5ca3a6a16b",
        "9c215a9fb0b674626a709d6576323864433a8f733a2748dfed6e246fdcda2c94"),
    "drift-kov-sqrt": (
        ["drift", "--map", "kov-sqrt", "--n", "3", "--eps", "0.001",
         "--steps", "200", "--seed", "1"],
        "44ab7147e2a9b929d906e4abb919d3199cf947cb89a968f00574f0b15f3cbb6d",
        "73d8a012b49dc2e0b6ab95d106eef7908d76af4faa01d7e4dfbffdf379db595d"),
    "drift-gen-kov": (
        ["drift", "--flow", "gen-kov", "--n", "4", "--eps", "0.001",
         "--steps", "200", "--seed", "1"],
        "6f253559477f4b59861f97853bb960b5cd7de073e15313468bc3e3ef6ff2c43b",
        "56b3ac9313e18cddbba2e95b9e22dceae1ee107222fb6e74fd0c9ec146b3a80c"),
    "simulate-kov3": (
        ["simulate", "--flow", "kov3", "--y0", "0.1,0.2,0.3", "--t-end", "1",
         "--dt", "0.001", "--with-invariants"],
        "b67086996e936f883b962b937800169f33684434c329959e9d3fe6d173e546b3",
        "8e2ceb7f541546f7d39a29103dfdee6b5ac713f3d154e014f40cb1864ace2f54"),
    "simulate-euler3": (
        ["simulate", "--flow", "euler3", "--y0", "0.3,0.7,1.1", "--t-end",
         "0.2", "--dt", "0.001", "--with-invariants"],
        "008ebde652bdecabc53ff4ec747fb42c6d54649c4937228db49e15212a757f26",
        "7a65a240e46ad3941b97dfa8df327c90695641bd6f4e6387bd7ac7c8702c9869"),
    "simulate-gen-kov": (
        ["simulate", "--flow", "gen-kov", "--n", "4", "--y0",
         "0.2,0.3,0.4,0.5", "--t-end", "0.5", "--dt", "0.001",
         "--with-invariants"],
        "05cb40bda9db012d57e3ea9637e6b4fcd394edb707640cfdbfad0ba324a2b946",
        "8324f38c2a264fff8888a3581116c5d3091ef3aea16ec401c6325b26d2b4a35e"),
    "simulate-gen-kov-outside": (
        ["simulate", "--flow", "gen-kov", "--n", "4",
         "--y0=0.2,-0.3,0.4,0.5", "--t-end", "0.5", "--dt", "0.001",
         "--with-invariants"],
        "428fe34b437a314e1c818956f6c494bfd61008c4b34e7934926718502a001e49",
        "03bc5d9c497b61fb83de7ae6f6d97f8e87b5297a77f5e606e489afc7f4f49b7f"),
    "simulate-gen-euler": (
        ["simulate", "--flow", "gen-euler", "--n", "4", "--y0",
         "0.2,0.3,0.4,0.5", "--t-end", "0.5", "--dt", "0.001",
         "--with-invariants"],
        "25c569a123801a411db766d403ae1e57bcf3bec1c52cb424972e7c47bb1a890b",
        "2259886791a4d7b8f3478219bc9e63fce065d893ea0c2a5065247acb61e779a0"),
}


@pytest.mark.parametrize("key", list(_PINNED_OUTPUTS))
def test_invariant_outputs_are_pinned(capsys, key):
    argv, csv_sha, json_sha = _PINNED_OUTPUTS[key]
    for fmt, sha in (("csv", csv_sha), ("json", json_sha)):
        assert main(argv + ["--format", fmt]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert hashlib.sha256(out.out.encode()).hexdigest() == sha, (key, fmt)


def test_drift_single_invariant_is_its_row_of_the_full_run(capsys):
    argv = ["drift", "--map", "gen-hk", "--n", "4", "--eps", "0.01",
            "--steps", "200", "--starts", "5", "--seed", "2", "--format",
            "json"]
    assert main(argv) == 0
    full = json.loads(capsys.readouterr().out)["reports"]
    assert main(argv + ["--invariant", "K12_hk4p1"]) == 0
    alone = json.loads(capsys.readouterr().out)
    assert alone["reports"] == [r for r in full
                                if r["invariant"] == "K12_hk4p1"]
    assert alone["reports"][0]["max_rel_drift"] is not None


def test_vanishing_d_factor_is_named_without_a_warning(capsys):
    # y_1 = 0 at eps = 0.1 makes d_1 = 1 - eps*(-4*y_1 + s) exactly 0, and
    # S = NaN
    argv = ["convergence", "--map", "gen-hk", "--n", "4", "--y0", "0,3,3,4",
            "--eps-list", "0.1,0.05", "--total-time", "0.2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert out.err == "aborted: gen-hk: denominator d_1 vanished\n"


# inputs that once ended in a traceback, a numpy warning, or a result computed
# from a meaningless setting
_BAD_INPUTS = [
    (_CONVERGENCE + ["--eps-list", "0.01,0.005", "--dt-ref", "0"], 1,
     "dt_ref=0.0 must be positive"),
    (_CONVERGENCE + ["--eps-list", "0.01,0.005", "--dt-ref", "-1e-4"], 1,
     "dt_ref=-0.0001 must be positive"),
    (_CONVERGENCE + ["--eps-list", "1e-320"], 1,
     "eps=1e-320 does not tile total time 0.2"),
    (_CONVERGENCE + ["--eps-list", "0.01,0.01"], 1,
     "--eps-list must be strictly decreasing"),
    (_SIMULATE + ["--t-end", "1", "--dt", "1e-320"], 1,
     "t_end/dt must be finite"),
    (["check", "--identity", "engine", "--n", "4", "--trials", "4", "--eps",
      "1e200"], 2, "step matrix numerically singular"),
    # eps * M overflows in the step-matrix build; the abort is judged by the
    # value, with no numpy warning
    (["check", "--identity", "engine", "--eps", "1e308"], 2,
     "step matrix numerically singular (det = -inf)"),
    (["check", "--identity", "engine", "--eps", "-1e308"], 2,
     "step matrix numerically singular (det = -inf)"),
]


@pytest.mark.parametrize("argv, rc, message", _BAD_INPUTS,
                         ids=["dt-ref-zero", "dt-ref-negative",
                              "eps-subnormal", "eps-tie", "dt-subnormal",
                              "engine-overflow", "engine-eps-max",
                              "engine-eps-min"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bad_inputs_exit_with_a_message(tmp_path, capsys, argv, rc, message,
                                        fmt):
    path = tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = main(argv + ["--format", fmt, "--out", str(path)])
    out = capsys.readouterr()
    assert got == rc
    assert out.out == ""
    assert message in out.err
    if rc == 1:
        assert out.err.startswith("error:") and not path.exists()
    else:
        assert out.err.startswith("aborted:")
        if fmt == "json":
            text = path.read_text(encoding="utf-8")
            assert json.loads(text)["status"] == "aborted"
        else:
            assert not path.exists()


def test_simulate_blowup_exits_two_with_partial_output(tmp_path, capsys):
    # on the diagonal kov3 is dy/dt = y^2, with its pole at t = 1
    argv = ["simulate", "--flow", "kov3", "--y0", "1,1,1", "--t-end", "2",
            "--dt", "0.01"]
    for fmt in ("csv", "json"):
        path = tmp_path / f"blowup.{fmt}"
        assert main(argv + ["--format", fmt, "--out", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "cap stop at step 101\n"
        text = path.read_text(encoding="utf-8")
        if fmt == "csv":
            assert text.split("\n")[-2].startswith("100,1,")
        else:
            data = json.loads(text)
            assert data["status"] == "blowup"
            assert len(data["rows"]) == 101
            if jsonschema is not None:
                jsonschema.validate(data, _schema("trajectory"))


def test_simulate_stays_finite_where_only_a_zero_coefficient_overflows(capsys):
    # gen-kov N = 50 near 2e6: e_50 overflows at its zero coefficient while
    # s = e_1 and every coordinate stay finite, so all 3 steps run
    y0 = ",".join(repr(2e6 * (1 + 0.001 * i)) for i in range(50))
    rc = main(["simulate", "--flow", "gen-kov", "--n", "50", "--y0", y0,
               "--t-end", "3e-12", "--dt", "1e-12"])
    out = capsys.readouterr()
    assert rc == 0 and out.err == ""
    rows = out.out.split("\n")[1:-1]
    assert len(rows) == 4
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


def test_convergence_csv_reports_slope_on_stderr(tmp_path, capsys):
    path = tmp_path / "conv.csv"
    assert main(_CONVERGENCE + ["--eps-list", "0.01,0.005", "--out",
                                str(path)]) == 0
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "slope 2.000020\n"
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "eps,error" and len(lines) == 4 and lines[3] == ""
    assert [float(line.split(",")[0]) for line in lines[1:3]] == [0.01, 0.005]


def test_check_csv(tmp_path, capsys):
    path = tmp_path / "check.csv"
    assert main(["check", "--identity", "d-sum", "--trials", "5", "--seed",
                 "3", "--out", str(path)]) == 0
    out = capsys.readouterr()
    assert out.out == "" and out.err == ""
    header, row, end = path.read_text(encoding="utf-8").split("\n")
    assert header == "identity,trials,max_residual" and end == ""
    name, trials, residual = row.split(",")
    assert (name, trials) == ("d-sum", "5")
    assert 0.0 <= float(residual) < 1e-12


@pytest.mark.parametrize("argv, message", [
    (["check", "--identity", "d-sum", "--trials", "0"],
     "--trials must be >= 1"),
    (["independence", "--family", "nope", "--n", "4"],
     "unknown family 'nope' at N=4; known: altmap4-phi, cross-ratio, "
     "euler-poly, flow-power, genhk4-phi, quartet, quartet-sqrt"),
    (_DRIFT + ["--eps", "0.01", "--invariant", "nope"],
     "no registered invariant 'nope' claimed for gen-hk"),
    (_SIMULATE[:-1] + ["0.1,0.2", "--t-end", "1", "--dt", "0.1"],
     "kov3 is three-dimensional"),
    (["map", "--map", "euler-hk", "--y0", "1,2,3,4", "--eps", "0.1",
      "--steps", "1"], "euler-hk is three-dimensional"),
    (_MAP[:-1] + ["1,2,3", "--eps", "0.1", "--steps", "1"],
     "--y0 must list 4 coordinates"),
    (_DRIFT + ["--eps", "0.01", "--y0", "1,2,3"],
     "--y0 must list 4 coordinates"),
    (["convergence", "--map", "gen-hk", "--n", "4", "--y0", "1,2,3",
      "--eps-list", "0.01"], "--y0 must list 4 coordinates"),
    # an empty entry is not dropped: 1,,2,3 once ran as N = 3
    (["map", "--map", "gen-hk", "--y0", "1,,2,3", "--eps", "0.1", "--steps",
      "1"], "--y0 has an empty entry: '1,,2,3'"),
    (_MAP[:-1] + ["1,2,3,4,", "--eps", "0.1", "--steps", "1"],
     "--y0 has an empty entry: '1,2,3,4,'"),
    (["map", "--map", "gen-hk", "--y0", "", "--eps", "0.1", "--steps", "1"],
     "--y0 has an empty entry: ''"),
    (_DRIFT + ["--eps", "0.01", "--y0=1,2, ,4"],
     "--y0 has an empty entry: '1,2, ,4'"),
    (_CONVERGENCE + ["--eps-list", "0.01,,0.005"],
     "--eps-list has an empty entry: '0.01,,0.005'"),
    (_CONVERGENCE + ["--eps-list", "0.01,"],
     "--eps-list has an empty entry: '0.01,'"),
    (_CONVERGENCE + ["--eps-list="], "--eps-list has an empty entry: ''"),
    # an entry that does not parse names its option too
    (["map", "--map", "gen-hk", "--n", "4", "--y0", "0.2,a,0.4,0.5", "--eps",
      "0.1", "--steps", "1"],
     "--y0 has an entry that is not a number: 'a' in '0.2,a,0.4,0.5'"),
    (_CONVERGENCE + ["--eps-list", "0.01,x"],
     "--eps-list has an entry that is not a number: 'x' in '0.01,x'"),
    # numpy seeds from nonnegative integers only
    (["drift", "--map", "gen-hk", "--n", "4", "--eps", "0.01", "--steps", "10",
      "--seed", "-1"], "argument --seed: must be nonnegative, got '-1'"),
    (["check", "--identity", "r-product", "--n", "4", "--trials", "3",
      "--seed", "-1"], "argument --seed: must be nonnegative, got '-1'"),
    (["independence", "--family", "cross-ratio", "--n", "4", "--points", "2",
      "--seed", "-1"], "argument --seed: must be nonnegative, got '-1'"),
    # drift --y0 draws nothing, so the options that draw starts are refused
    (_OUTSIDE + ["--seed", "5"],
     "--seed cannot be used with --y0, which gives the one start"),
    (_OUTSIDE + ["--seed", "0"],
     "--seed cannot be used with --y0, which gives the one start"),
    (_OUTSIDE + ["--starts", "7"],
     "--starts cannot be used with --y0, which gives the one start"),
    (_OUTSIDE + ["--starts", "1", "--seed", "99"],
     "--starts and --seed cannot be used with --y0, which gives the one "
     "start"),
    # the time itself is named, not the dt of the RK4 reference it sets
    (_CONVERGENCE + ["--eps-list", "0.01", "--total-time", "-0.2"],
     "total_time=-0.2 must be positive and finite"),
    (_CONVERGENCE + ["--eps-list", "0.01", "--total-time", "0"],
     "total_time=0.0 must be positive and finite"),
    # a count of starts, trials or points above flows.MAX_STEPS, refused
    # before anything is drawn or allocated
    *[(argv + [str(count)], message + str(count))
      for count in (10**15, 10**18)
      for argv, message in (
          (["check", "--identity", "d-sum", "--trials"],
           "trials must be <= MAX_STEPS = 1e+07, got "),
          (["drift", "--map", "gen-hk", "--n", "4", "--eps", "0.01",
            "--steps", "5", "--starts"],
           "random_starts needs n <= MAX_STEPS = 1e+07 starts, got "),
          (["independence", "--family", "cross-ratio", "--n", "4",
            "--points"],
           "random_starts needs n <= MAX_STEPS = 1e+07 starts, got "))],
], ids=["check-trials-zero", "independence-family", "drift-invariant",
        "simulate-y0", "map-y0-fixed-dim", "map-y0", "drift-y0",
        "convergence-y0", "map-y0-empty-entry", "map-y0-trailing-comma",
        "map-y0-empty", "drift-y0-blank-entry",
        "convergence-eps-list-empty-entry",
        "convergence-eps-list-trailing-comma", "convergence-eps-list-empty",
        "map-y0-not-a-number", "convergence-eps-list-not-a-number",
        "drift-negative-seed", "check-negative-seed",
        "independence-negative-seed", "drift-y0-seed", "drift-y0-seed-zero",
        "drift-y0-starts", "drift-y0-starts-seed",
        "convergence-total-time-negative", "convergence-total-time-zero",
        *[f"{cmd}-{count}" for count in ("1e15", "1e18")
          for cmd in ("check-trials", "drift-starts", "independence-points")]])
def test_rejected_options_exit_one(tmp_path, capsys, argv, message):
    path = tmp_path / "out.txt"
    assert main(argv + ["--out", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"
    assert not path.exists()


@pytest.mark.parametrize("argv, message", [
    # --seed only where something is drawn: drift, check and independence
    (_MAP + ["--eps", "0.1", "--steps", "1", "--seed", "1"],
     "unrecognized arguments: --seed 1"),
    (_SIMULATE + ["--t-end", "0.01", "--dt", "0.001", "--seed", "1"],
     "unrecognized arguments: --seed 1"),
    (_CONVERGENCE + ["--eps-list", "0.01", "--seed", "1"],
     "unrecognized arguments: --seed 1"),
    (_DRIFT + ["--eps", "0.01", "--seed", "abc"],
     "argument --seed: invalid int value: 'abc'"),
    (["simulate", "--flow", "gen-kov", "--n", "2", "--y0", "0.1,0.2",
      "--t-end", "0.01", "--dt", "0.001"],
     "generalized Kovalevskaya flow needs N >= 3"),
    (["drift", "--flow", "gen-euler", "--n", "2", "--eps", "0.001", "--steps",
      "8"], "generalized Euler flow needs N >= 3"),
    (["map", "--map", "gen-hk", "--n", "2", "--y0", "0.1,0.2", "--eps", "0.01",
      "--steps", "1"], "gen-hk needs N >= 3"),
    (["drift", "--map", "alt-map", "--n", "2", "--eps", "0.01", "--steps",
      "8"], "alt-map needs N >= 3"),
    (_SIMULATE + ["--t-end", "-1", "--dt", "0.001"],
     "t_end must be nonnegative"),
], ids=["map-seed", "simulate-seed", "convergence-seed", "drift-seed-abc",
        "gen-kov-n2", "gen-euler-n2", "gen-hk-n2", "alt-map-n2",
        "simulate-t-end-negative"])
def test_validation_errors_exit_one_with_their_message(capsys, argv, message):
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_write_that_fails_after_the_out_check_exits_one(capsys):
    # /dev/full passes the early --out check; the write fails with ENOSPC
    argv = _MAP + ["--eps", "0.1", "--steps", "1", "--out", "/dev/full"]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: cannot write --out '/dev/full': "
                       f"{os.strerror(errno.ENOSPC)}\n")


# --- a plain line, or one scan ----------------------------------------------

_README = [argv[1:] for argv in EXAMPLES]

#: (argv, how the whole parser ends it: a namespace, a ConfigError or exit)
_ROUTES = [(argv, "namespace") for argv in _README] + [
    (_DRIFT + ["--eps=-1e-3"], "namespace"),
    (_DRIFT + ["--eps", "-1e-3"], "namespace"),
    (_OUTSIDE, "namespace"),
    (_DRIFT + ["--eps", "0.01", "--fo", "json", "--se", "3"], "namespace"),
    (_DRIFT + ["--eps", "0.01", "--for=json", "--star=2"], "namespace"),
    (_DRIFT + ["--eps", "0.01", "--st=2"], "error"),
    (_SIMULATE + ["--t-end", "1", "--dt", "0.1", "--with"], "namespace"),
    (_MAP + ["--eps", "0.1", "--steps", "1", "--y0", "4,3,2,1"], "namespace"),
    (_DRIFT + ["--eps", "0.01", "--"], "error"),
    (_DRIFT + ["--eps", "0.01", "--", "extra"], "error"),
    (["map", "--", "--map", "gen-hk"], "error"),
    ([], "error"),
    (["nope"], "error"),
    (["nope", "--map", "gen-hk"], "error"),
    (["Drift"] + _DRIFT[1:] + ["--eps", "0.01"], "error"),
    (["dri"] + _DRIFT[1:] + ["--eps", "0.01"], "error"),
    (["--format", "json"] + _DRIFT + ["--eps", "0.01"], "error"),
    (["--", "drift"], "error"),
    (["drift", "--map", "gen-hk", "--flow", "kov3", "--eps", "0.01",
      "--steps", "8"], "error"),
    (["drift", "--n", "4", "--eps", "0.01", "--steps", "8"], "error"),
    (_MAP + ["--eps", "0.1"], "error"),
    (_MAP + ["--eps", "0.1", "--steps", "two"], "error"),
    (_MAP + ["--eps", "1e-3e", "--steps", "1"], "error"),
    (_MAP + ["--eps", "nan", "--steps", "1"], "error"),
    (_MAP + ["--eps", "-inf", "--steps", "1"], "error"),
    (_DRIFT + ["--eps", "0.01", "--seed", "-1"], "error"),
    (["map", "--map", "nope", "--y0", "1", "--eps", "0.1", "--steps", "1"],
     "error"),
    (_DRIFT + ["--eps", "0.01", "--format", "xml"], "error"),
    (_DRIFT + ["--eps", "0.01", "--bogus"], "error"),
    (_DRIFT + ["--eps", "0.01", "-x", "3"], "error"),
    (_DRIFT + ["--eps", "0.01", "--s", "3"], "error"),
    (_DRIFT + ["--eps"], "error"),
    (["check", "--identity", "d-sum", "stray"], "error"),
    (["-h"], "exit"),
    (["--help"], "exit"),
    (["--he"], "exit"),
    (["-h", "drift"], "exit"),
    (["drift", "-h"], "exit"),
    (_DRIFT + ["--help"], "exit"),
    (["map", "--he"], "exit"),
    (["check", "--identity", "d-sum", "-h"], "exit"),
    (["check", "--identity", "nope", "-h"], "error"),
    # the edges of a plain line: repeats, `=` forms, dash and negative
    # values, a flag given a value, a missing value or required option
    (_DRIFT + ["--eps", "0.01", "--eps", "0.02"], "namespace"),
    (_DRIFT + ["--eps", "0.01", "--steps", "9"], "namespace"),
    (_DRIFT + ["--eps", "0.01", "--format", "json", "--format", "csv"],
     "namespace"),
    (_DRIFT + ["--eps", "0.01", "--seed=3"], "namespace"),
    (_DRIFT + ["--eps", "0.01", "--seed", "-3"], "error"),
    (_DRIFT + ["--eps", "0.01", "--y0", "-1,2,3,4"], "error"),
    (_DRIFT + ["--eps", "0.01", "--invariant", "-"], "namespace"),
    (_DRIFT + ["--eps", "0.01", "--invariant", ""], "namespace"),
    (_DRIFT + ["--eps", "0.01", "--map", "gen-hk"], "namespace"),
    (_DRIFT + ["--eps", "0.01", "--flow", "kov3"], "error"),
    (_DRIFT + ["--eps", "0.01", "--n"], "error"),
    (_DRIFT + ["--eps", "0.01", "--n", "four"], "error"),
    (["drift", "--eps", "0.01", "--steps", "8"], "error"),
    (["drift", "--flow", "kov3", "--eps", "0.01"], "error"),
    (["simulate", "--with-invariants", "--with-invariants"] + _SIMULATE[1:]
     + ["--t-end", "1", "--dt", "0.1"], "namespace"),
    (["simulate", "--with-invariants", "3"] + _SIMULATE[1:]
     + ["--t-end", "1", "--dt", "0.1"], "error"),
    (["simulate", "--with-invariants=3"] + _SIMULATE[1:]
     + ["--t-end", "1", "--dt", "0.1"], "error"),
    (["simulate", "--flow", "nope"] + _SIMULATE[1:]
     + ["--t-end", "1", "--dt", "0.1"], "error"),
    (["check", "--identity", "d-sum", "--eps", "-0.1"], "namespace"),
    (["check", "--identity", "d-sum", "--eps", "0.1", "--trials", "-2"],
     "namespace"),
    (["independence", "--family", "-x", "--n", "3"], "error"),
    (["independence", "--family", "x", "--n", "3", "--points"], "error"),
] + [([command, "-h"], "exit") for command in ("simulate", "convergence",
                                                 "independence")]


def _parse_outcome(capsys, parse, argv):
    try:
        got = ("namespace", vars(parse(list(argv))))
    except ConfigError as exc:
        got = ("error", str(exc))
    except SystemExit as exc:
        got = ("exit", exc.code)
    out = capsys.readouterr()
    return got, out.out, out.err


@pytest.mark.parametrize("argv, how", _ROUTES,
                         ids=[" ".join(a)[:60] or "empty" for a, _ in _ROUTES])
def test_main_parses_as_the_whole_parser(capsys, argv, how):
    # main hands a command's options to that command's parser alone; the
    # namespace, the ConfigError message, or the help text and exit code are
    # those of the whole parser
    got = _parse_outcome(capsys, cli._parse_args, argv)
    assert got == _parse_outcome(capsys, build_parser().parse_args, argv)
    assert got[0][0] == how


_COMMAND_PARSERS = next(a.choices for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))

#: values that pass each option type, by type
_FITTING = {None: ["1,2,3,4", "x"], int: ["0", "4"], cli._seed: ["0", "7"],
            cli._finite_float: ["0.01", "2"]}
#: values that fail most types or choices, or read as options
_ODD = ["-3", "-1e-3", "-x", "-", "--", "", "1e-3e", "nan", "x", "json"]


@st.composite
def _command_lines(draw):
    # a command's required options in any order among others, each spelled
    # in full with a value that fits it; options may repeat, and a group's
    # options may come together.  Then, in half the lines, one edit to one
    # option: abbreviate it, spell it --opt=value, drop its value, give it
    # an odd value (a flag: any value), add a stray token, or leave it out.
    name = draw(st.sampled_from(sorted(_COMMAND_PARSERS)))
    command = _COMMAND_PARSERS[name]
    options = [a for a in command._actions if a.option_strings]
    required = [a for a in options if a.required] + [
        draw(st.sampled_from(g._group_actions))
        for g in command._mutually_exclusive_groups if g.required]
    chosen = required + draw(st.lists(st.sampled_from(options), max_size=4))
    items = []
    for action in draw(st.permutations(chosen)):
        flag = draw(st.sampled_from(action.option_strings))
        fits = list(action.choices or _FITTING[action.type])
        items.append([flag] + ([] if action.nargs == 0
                               else [draw(st.sampled_from(fits))]))
    if items and draw(st.booleans()):
        item = items[draw(st.integers(0, len(items) - 1))]
        odd = draw(st.sampled_from(_ODD))
        edit = draw(st.sampled_from(["abbreviated", "equals", "bare", "odd",
                                     "stray", "missing"]))
        if edit == "abbreviated":
            item[0] = item[0][:draw(st.integers(2, len(item[0])))]
        elif edit == "equals":
            item[:] = ["=".join(item if len(item) == 2 else item + [odd])]
        elif edit == "bare":
            del item[1:]
        elif edit == "odd":
            item[1:] = [odd]
        elif edit == "stray":
            item.append(odd)
        else:
            item.clear()
    return [name] + [token for item in items for token in item]


@settings(deadline=None, max_examples=400)
@given(_command_lines())
def test_a_plain_reading_is_the_whole_parsers_namespace(argv):
    got = cli._plain_args(_COMMAND_PARSERS[argv[0]], argv)
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            want = build_parser().parse_args(argv)
        except (ConfigError, SystemExit):
            want = None
    # the same values of the same types, in the same order
    assert got is None or repr(got) == repr(want)


def test_a_plain_command_line_takes_no_scan(monkeypatch, capsys):
    scans = []
    scan = argparse.ArgumentParser._parse_known_args

    def counted(self, *args, **kwargs):
        scans.append(self.prog)
        return scan(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "_parse_known_args", counted)
    # every README line is read from its command's option table
    for argv in _README:
        scans.clear()
        assert main(argv) == 0
        assert scans == [], argv
    # a negative value, a repeat, an abbreviation or an `=` form is scanned
    # once, by the command's own parser
    for tail in (["--eps", "-1e-3", "--format", "json"],
                 ["--eps", "0.01", "--eps", "0.02"],
                 ["--eps", "0.01", "--form", "json"],
                 ["--eps=0.01"]):
        scans.clear()
        assert main(_DRIFT + tail) == 0
        assert scans == ["kovtop drift"], tail
    capsys.readouterr()
    # a command line naming no command is ended by the whole parser
    scans.clear()
    assert main(["nope"]) == 1
    assert scans == ["kovtop"]


# --- an --out that cannot be written ----------------------------------------

_STRERROR = {"missing-dir": "No such file or directory",
             "directory": "Is a directory"}


def _unwritable(tmp_path, where):
    if where == "missing-dir":
        return tmp_path / "missing" / "out.txt"
    return tmp_path


@pytest.mark.parametrize("argv", [
    _MAP + ["--eps", "0.01", "--steps", "3"],
    _SIMULATE + ["--t-end", "0.01", "--dt", "0.001"],
    _DRIFT + ["--eps", "0.01", "--starts", "2"],
    # an orbit that stops early writes its partial trajectory, then exits 2
    ["simulate", "--flow", "kov3", "--y0", "1,1,1", "--t-end", "2", "--dt",
     "0.01"],
], ids=["map", "simulate", "drift", "simulate-blowup"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("where", list(_STRERROR))
def test_unwritable_out_exits_one_naming_it(tmp_path, capsys, argv, fmt,
                                            where):
    path = _unwritable(tmp_path, where)
    assert main(argv + ["--format", fmt, "--out", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: cannot write --out {str(path)!r}: "
                       f"{_STRERROR[where]}\n")


@pytest.mark.parametrize("where", list(_STRERROR))
def test_abort_status_to_an_unwritable_out_exits_one(tmp_path, capsys, where):
    # the JSON status of an aborted run is written while handling the abort
    path = _unwritable(tmp_path, where)
    argv = ["check", "--identity", "engine", "--n", "4", "--trials", "4",
            "--eps", "1e200", "--format", "json", "--out", str(path)]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: cannot write --out {str(path)!r}: "
                       f"{_STRERROR[where]}\n")


def _no_orbit(*args, **kwargs):
    raise AssertionError("an orbit ran before --out was checked")


@pytest.mark.parametrize("argv", [
    _MAP + ["--eps", "0.01", "--steps", "200000"],
    _SIMULATE + ["--t-end", "1", "--dt", "0.001"],
    _DRIFT + ["--eps", "0.01", "--starts", "2"],
    ["drift", "--flow", "kov3", "--eps", "0.01", "--steps", "8",
     "--starts", "2"],
], ids=["map", "simulate", "drift-map", "drift-flow"])
@pytest.mark.parametrize("where", list(_STRERROR))
def test_unwritable_out_exits_one_before_any_orbit(tmp_path, capsys,
                                                   monkeypatch, argv, where):
    # a missing directory or a directory is refused before the command runs
    # an orbit, and the check creates nothing
    monkeypatch.setattr(kernels, "map_orbit", _no_orbit)
    monkeypatch.setattr(kernels, "rk4_orbit", _no_orbit)
    path = _unwritable(tmp_path, where)
    assert main(argv + ["--out", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write --out {str(path)!r}: {_STRERROR[where]}\n")
    assert list(tmp_path.iterdir()) == []


def test_out_check_truncates_nothing(tmp_path, capsys):
    # an existing --out of a command that is then rejected keeps its bytes;
    # a file in a directory that is not one is refused as open() refuses it
    path = tmp_path / "out.csv"
    path.write_text("kept\n", encoding="utf-8")
    argv = _DRIFT + ["--eps", "0.01", "--invariant", "nope"]
    assert main(argv + ["--out", str(path)]) == 1
    assert path.read_text(encoding="utf-8") == "kept\n"
    capsys.readouterr()
    inside = path / "x.csv"
    assert main(_MAP + ["--eps", "0.01", "--steps", "3", "--out",
                        str(inside)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write --out {str(inside)!r}: Not a directory\n")
    with pytest.raises(NotADirectoryError):
        open(inside, "w", encoding="utf-8")


@pytest.mark.parametrize("shape", ["missing/out.csv", "missing/deeper/out.csv",
                                   "file/out.csv", "new/", "file/", "dir",
                                   "dir/"])
def test_out_check_says_what_open_says(tmp_path, capsys, shape):
    # the early refusal names the error open() gives for the same path
    (tmp_path / "file").write_text("", encoding="utf-8")
    (tmp_path / "dir").mkdir()
    path = str(tmp_path) + os.sep + shape
    with pytest.raises(OSError) as opened:
        open(path, "w", encoding="utf-8")
    assert main(_MAP + ["--eps", "0.01", "--steps", "3", "--out", path]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write --out {path!r}: {opened.value.strerror}\n")



# map orbits (every cell distinct) and simulate runs with their invariant
# columns (conserved values repeated row after row): (argv, target, N, step,
# steps, invariant columns)
_WRITTEN_RUNS = {
    "map-gen-hk": (["map", "--map", "gen-hk", "--n", "4", "--y0",
                    "0.3,0.7,1.1,1.9"], "gen-hk", 4, 1e-4, 250, 0),
    "map-alt-map": (["map", "--map", "alt-map", "--n", "6", "--y0",
                     "0.2,0.5,0.8,1.1,1.4,1.7"], "alt-map", 6, 1e-4, 250, 0),
    "simulate-kov3": (["simulate", "--flow", "kov3", "--y0", "0.1,0.3,0.45"],
                      "kov3", 3, 1e-4, 125, 5),
    "simulate-euler3": (["simulate", "--flow", "euler3", "--y0",
                         "0.2,0.35,0.5"], "euler3", 3, 1e-4, 125, 3),
    "simulate-gen-kov": (["simulate", "--flow", "gen-kov", "--n", "4", "--y0",
                          "0.15,0.25,0.4,0.5"], "gen-kov", 4, 1e-4, 125, 20),
}


@pytest.mark.parametrize("key", list(_WRITTEN_RUNS))
def test_trajectory_files_match_the_reference_writers(tmp_path, key):
    # the --out files of real orbits hold the bytes the reference writers
    # give for the same record, built here from the library
    argv, name, n, dt, steps, m = _WRITTEN_RUNS[key]
    y0 = cli._parse_y0(argv[-1])
    if argv[0] == "map":
        target = get_map(name, n)
        argv = argv + ["--eps", repr(dt), "--steps", str(steps)]
        states, end, _ = target.orbit(y0, dt, steps)
        times, names, inv = target.step_time(dt) * np.arange(end + 1), [], None
    else:
        target = get_flow(name, n)
        argv = argv + ["--t-end", repr(dt * steps), "--dt", repr(dt),
                       "--with-invariants"]
        states, end, _ = rk4_states(target, y0, dt, steps)
        invs = claimed_invariants(target, registry(n))
        times, names = dt * np.arange(end + 1), [v.name for v in invs]
        inv = evaluate(invs, states, 0.0)[0].T
        assert len(np.unique(inv.view(np.int64))) < inv.size
    assert end == steps and len(names) == m
    rec = TrajectoryRecord(target.name, times, states, names, inv)
    for fmt, reference in (("csv", reference_csv), ("json", reference_json)):
        path = tmp_path / f"{key}.{fmt}"
        assert main(argv + ["--format", fmt, "--out", str(path)]) == 0
        assert path.read_bytes() == reference(rec).encode()
