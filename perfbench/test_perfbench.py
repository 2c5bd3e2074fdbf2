"""Tests of the benchmark itself:  python3 -m pytest perfbench"""
import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from kovtop import cli, invariants, maps  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_job_list_follows_the_seed(workload, tmp_path):
    first = [j.signature() for j in workloads.build_jobs(workload, 3, tmp_path)]
    assert len(first) >= 100    # the tail, with ten jobs beyond it, is >= p90
    again = [j.signature() for j in workloads.build_jobs(workload, 3, tmp_path)]
    other = [j.signature() for j in workloads.build_jobs(workload, 4, tmp_path)]
    assert first == again
    assert [s[0] for s in first] == [s[0] for s in other]
    assert first != other


def test_tail_percentile_keeps_ten_samples_beyond():
    times = [float(k) for k in range(12)]
    assert run.percentile_tail(times) == (1.0, 100.0 * 2 / 12, 12)
    assert run.percentile_tail(times[:11])[0] == 0.0
    with pytest.raises(ValueError):
        run.percentile_tail(times[:10])
    assert run.percentile_tail([float(k) for k in range(200)])[0] == 189.0


def test_job_times_are_scaled_by_the_probes_around_them():
    rec = run.PassRecord()
    rec.times = [1.0, 2.0]
    rec.probes = [run.PROBE_REF_S, 2 * run.PROBE_REF_S, 2 * run.PROBE_REF_S]
    assert rec.adjusted == pytest.approx([1.0 / 1.5, 1.0])
    other = run.PassRecord()
    other.times, other.probes = [3.0, 0.5], [run.PROBE_REF_S] * 3
    assert run.per_job_median([rec, other], "adjusted") == pytest.approx(
        [(1.0 / 1.5 + 3.0) / 2, 0.75])


def _capture(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_validator_rejects_negative_window_end():
    # a start outside the cross-ratio domain makes drift_report end the
    # window at -1, which drift.schema.json forbids
    argv = ["drift", "--map", "gen-hk", "--y0=-0.5,0.3,0.4,0.6", "--eps", "0.01",
            "--steps", "50", "--format", "json"]
    rc, text = _capture(argv)
    assert rc == 0
    assert -1 in [r["first_blowup_step"] for r in json.loads(text)["reports"]]
    target = maps.get_map("gen-hk", 4)
    names = [v.name for v in invariants.claimed_invariants(
        target, invariants.registry(4))]
    check = workloads.drift_check(names, "gen-hk", 0.01, 50, workloads.DRIFT_TOL)
    problems = check(workloads.Outcome(rc=rc, stdout=text, output=text))
    assert any(p.startswith("schema:") for p in problems), problems


def test_validator_checks_rows_against_the_generic_engine(tmp_path):
    job = next(j for j in workloads.build_jobs("trajectories", 5, tmp_path)
               if j.id == "map gen-hk N=4 csv #1")
    out, _ = run.Runner([job]).execute(job)
    assert job.check(out) == []
    lines = out.output.splitlines()
    for k in range(2, len(lines), 2):       # rows 1, 3, 5, ...
        fields = lines[k].split(",")
        fields[2] = repr(float(fields[2]) * (1 + 1e-9))
        lines[k] = ",".join(fields)
    out.output = "\n".join(lines) + "\n"
    assert any("differs from hk_step" in p for p in job.check(out))


def test_warnings_are_counted_not_failed(capsys, tmp_path):
    job = workloads.Job(
        id="gen-euler drift",
        argv=["drift", "--flow", "gen-euler", "--n", "4", "--eps", "0.001",
              "--steps", "2000", "--starts", "5", "--seed", "1",
              "--format", "json"],
        check=lambda out: [])
    out, _ = run.Runner([job]).execute(job)
    assert out.rc == 0 and out.error is None
    assert out.warnings > 0
    assert json.loads(out.output)["status"] == "ok"
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""


def test_tracer_installs_where_callers_look_and_removes_everything():
    run.check_untraced()
    with tracing.Tracer():
        names = tracing.installed_wrappers()
        assert "kovtop.cli.drift_batch" in names       # bound by name in cli
        assert "kovtop.invariants.drift_batch" in names
        assert "kovtop.kernels.map_orbit" in names     # looked up via module
        assert "DiscreteMap.step" in names             # a method
        with pytest.raises(RuntimeError):
            run.check_untraced()
    assert tracing.installed_wrappers() == []
    run.check_untraced()


ORBITS_PER_START = {"gen-hk N=3": 11, "gen-hk N=4": 23, "gen-hk N=5": 9,
                    "alt-map N=3": 11, "alt-map N=4": 23, "alt-map N=5": 9,
                    "euler-hk N=3": 9, "cosine N=3": 9, "kov-sqrt N=3": 11,
                    "kov-pullback N=3": 11}


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("out")
    jobs = [j for j in workloads.build_jobs("drift-maps", 7, out_dir)
            if j.id.endswith("#1")]
    jobs += [j for j in workloads.build_jobs("trajectories", 7, out_dir)
             if j.id in ("map gen-hk N=4 csv #1", "simulate kov3 N=3 json #1")]
    results = []
    for _ in range(2):
        runner = run.Runner(jobs)
        tracer = tracing.Tracer()
        with tracer:
            rec = runner.run_pass(tracer)
        assert rec.failures == []
        results.append((tracing.layer_metrics(tracer.spans),
                        tracing.orbits_per_start(tracer.spans)[1]))
    assert tracing.installed_wrappers() == []
    return results


#: per-layer metrics that count work; they must repeat exactly between runs
COUNTS = ("kernels.map_orbit.calls", "kernels.map_orbit.steps",
          "kernels.rk4_orbit.steps", "invariants.Invariant.values.points",
          "invariants.drift_batch.orbits_per_start",
          "core.TrajectoryRecord.to_csv.bytes",
          "core.TrajectoryRecord.to_json.bytes")


def test_traced_counts_repeat_exactly(traced_twice):
    (first, _), (second, _) = traced_twice
    for name in COUNTS:
        assert first[name] == second[name], name
    assert first["kernels.map_orbit.steps"] > 0
    assert first["kernels.rk4_orbit.steps"] == round(workloads.SIM_T_END
                                                     / workloads.SIM_DT)
    assert first["core.TrajectoryRecord.to_csv.bytes"] > 0
    assert first["core.TrajectoryRecord.to_json.bytes"] > 0


def test_orbits_per_start_counts_claimed_invariants(traced_twice):
    per_job = traced_twice[0][1]
    assert {k.removeprefix("drift ").removesuffix(" #1"): v
            for k, v in per_job.items()} == ORBITS_PER_START


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drift-maps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
