import json

import pytest

try:
    import jsonschema
except ImportError:
    jsonschema = None

from kovtop.cli import main

SCHEMA_DIR = None


def _schema(name):
    global SCHEMA_DIR
    if SCHEMA_DIR is None:
        import kovtop
        from pathlib import Path
        SCHEMA_DIR = Path(kovtop.__file__).parent / "schemas"
    with open(SCHEMA_DIR / f"{name}.schema.json") as fh:
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
    assert "--n or --y0" in capsys.readouterr().err


@pytest.mark.parametrize("starts", ["0", "-3"])
def test_drift_without_starts_exits_one(capsys, starts):
    rc = main(["drift", "--map", "gen-hk", "--n", "4", "--eps", "0.01",
               "--steps", "8", "--starts", starts])
    assert rc == 1
    assert "--starts" in capsys.readouterr().err


def test_singular_abort_exits_two(capsys):
    # eps = 0.25 on the diagonal is exactly the singular variety of gen-hk
    rc = main(["map", "--map", "gen-hk", "--n", "4", "--y0", "1,1,1,1",
               "--eps", "0.25", "--steps", "3"])
    out = capsys.readouterr()
    assert rc == 2
    assert "step,t" in out.out          # partial output still written


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
