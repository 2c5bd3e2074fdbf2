"""The benchmark's own callers run here: `perfbench/warm.py`'s first calls
and one pass of every workload's job list, each job's output checked.  The
benchmark files are loaded by path, as `test_benchmark_tracer.py` loads the
tracer, so a change that removes a name they call or alters an output they
check fails here, not first in a benchmark run."""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("drift-maps", "drift-flows", "trajectories", "scalar-checks")


@pytest.fixture
def bench(monkeypatch):
    # run.py imports `tracing` and `workloads` by these names, and warm.py
    # puts `src` on the path; both are undone after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    modules = {}
    for name in ("tracing", "workloads", "warm", "run"):
        spec = importlib.util.spec_from_file_location(name,
                                                      PERFBENCH / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    return modules


def test_every_workload_is_covered(bench):
    assert bench["run"].WORKLOADS == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_benchmark_pass_has_no_failures(bench, tmp_path, workload):
    bench["warm"].first_calls()
    jobs = bench["workloads"].build_jobs(workload, 1, tmp_path)
    record = bench["run"].Runner(jobs).run_pass()
    assert record.failures == []
