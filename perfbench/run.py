"""End-to-end benchmark of kovtop.

Run from the repository root:

    python3 perfbench/run.py --workload drift-maps --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each exists): drift-maps, drift-flows,
trajectories, scalar-checks.  `--workload all` runs every workload in turn,
each in a child process of its own, so that each peak_rss_mb is its own.

One sequential caller runs the workload's fixed job list (derived from
--seed) in this process, pass after pass, in a closed loop, until --seconds
have gone by (and at least two passes are done).

The host's speed moves by up to 2x, in spells from a second to minutes long.
So a short probe loop that does not touch the program is timed between every
two jobs, and each job's time is scaled to the reference host speed: it is
multiplied by PROBE_REF_S over the mean of the probes just before and just
after it.  A job's latency is the median of these host-adjusted times over
the passes; wall_s adds these up, and job_p50_s and job_tail_s are
percentiles over the job list.  Every job list has at least a hundred jobs,
so the tail, the highest percentile with ten jobs beyond it, is p90 or
higher.  The unadjusted wall_s and the probe's median are printed too.

A workload runs on one CPU.  The drift commands run their starts on a thread
pool whose threads take turns holding the GIL, so the program gains nothing
from a second CPU today.  Across two CPUs each hand-over of the GIL also
waits on whatever delays the other CPU, which the single-threaded probe does
not see: drift-maps' adjusted figures then moved by up to three quarters
between runs.  A program change that runs in parallel needs this revisited.

Every job's stdout and stderr are captured, and numpy RuntimeWarnings are
counted per job.  Every output is checked outside the timed interval; a job
that exits non-zero, raises, or fails its check counts as failed.  An output
byte-identical to one already checked for the same job reuses that verdict.

With --trace 0 the last line of stdout is one JSON object with the end-to-end
metrics; failed_frac is printed above it and carried as `attempted` and
`failed`, since a metric must not read 0.  With --trace 1 the object carries
the per-layer metrics of two traced passes, which alternate with two untraced
ones to give the tracing overhead; the first traced pass's spans are written to
.perfbench-out/ under the root.  Lines before the object hold the environment
(versions, CPU count, kernel path, source digest, seed, and a calibration
loop timed at the start and the end) and each metric with its unit.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from tracing import (SPAN_FIELDS, Tracer, combine_passes, installed_wrappers,
                     layer_metrics, orbits_per_start)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("drift-maps", "drift-flows", "trajectories", "scalar-checks")
MIN_PASSES = 2         # every job gets a median of at least two
SETUP_PROBES = 5       # fresh-interpreter set-ups per run, spread over it
CALIBRATION_STEPS = 10_000
#: the host-speed probe between jobs, and its time on the reference host in
#: its faster spells (it reads about 1e-3 s in the slower ones)
PROBE_STEPS = 100
PROBE_REF_S = 5e-4


def percentile_tail(times):
    """(value, percentile, samples): the highest percentile of `times` that
    has at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"{n} samples leave no percentile with ten beyond it")
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def calibrate(steps=CALIBRATION_STEPS):
    """Seconds for a fixed scalar loop (an N=4 bilinear step written out
    here), independent of the program: host speed drift shows next to the
    numbers."""
    y = np.array([0.2, 0.3, 0.4, 0.5])
    eps = 1e-4
    t0 = time.perf_counter()
    for _ in range(steps):
        s = 0.0
        for v in y:
            s += v
        d = np.empty(4)
        t = 0.0
        for i in range(4):
            d[i] = 1.0 - eps * (-4.0 * y[i] + s)
            t += y[i] / d[i]
        y = y / ((1.0 - eps * t) * d)
    return time.perf_counter() - t0


def time_setup():
    """Wall time of a fresh interpreter running the set-up probe, scaled to
    the reference host speed as the jobs' times are."""
    before = calibrate(PROBE_STEPS)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "warm.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return elapsed * 2 * PROBE_REF_S / (before + calibrate(PROBE_STEPS))


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "kovtop").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha():
    """HEAD of the checkout, or None when the root is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def environment(args):
    import kovtop
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "kovtop_jit_enabled": getattr(kovtop, "JIT_ENABLED", None),
            "git_sha": _git_sha(), "src_sha256": _source_digest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


class PassRecord:
    """Timings and verdicts of one pass over the job list.  `probes` holds
    the host-speed probe before the first job and after each job."""

    def __init__(self):
        self.times: list[float] = []
        self.probes: list[float] = []
        self.cpu = 0.0
        self.steps = 0
        self.failures: list[tuple[str, list[str]]] = []
        self.warnings = 0
        self.out_bytes = 0

    @property
    def wall(self):
        return sum(self.times)

    @property
    def adjusted(self):
        """Each job's time at the reference host speed."""
        return [t * 2 * PROBE_REF_S / (before + after) for t, before, after
                in zip(self.times, self.probes, self.probes[1:])]


class Runner:
    def __init__(self, jobs):
        import kovtop.cli
        self.cli = kovtop.cli
        self.jobs = jobs
        self._verdicts = {}

    def execute(self, job, tracer=None):
        from workloads import Outcome
        out = Outcome()
        so, se = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = job.id
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    if job.argv is not None:
                        out.rc = self.cli.main(job.argv)
                    else:
                        out.value = job.call()
                        out.rc = 0
                except Exception as exc:  # a raising job fails; the run goes on
                    out.error = f"{type(exc).__name__}: {exc}"
                out.elapsed = time.perf_counter() - t0
                cpu = time.process_time() - c0
        out.warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
        out.stdout, out.stderr = so.getvalue(), se.getvalue()
        out.output = out.stdout
        if job.out_path is not None and job.out_path.exists():
            out.output = job.out_path.read_text()
            job.out_path.unlink()
        return out, cpu

    def problems(self, job, out):
        """The problems `job.check` finds in `out`.  A CLI job's output that
        is byte-identical to one already checked for the same job reuses that
        verdict: validating a trajectory JSON against its schema row by row
        takes longer than running the job."""
        if job.argv is None:
            return self._check(job, out)
        key = (job.id, out.rc, out.error,
               hashlib.blake2b((out.stdout + "\0" + out.stderr + "\0"
                                + out.output).encode()).digest())
        if key not in self._verdicts:
            self._verdicts[key] = self._check(job, out)
        return self._verdicts[key]

    @staticmethod
    def _check(job, out):
        try:
            return job.check(out)
        except Exception as exc:  # an output the check cannot digest fails
            return [f"check raised {type(exc).__name__}: {exc}"]

    def run_pass(self, tracer=None):
        rec = PassRecord()
        outcomes = []
        rec.probes.append(calibrate(PROBE_STEPS))
        for job in self.jobs:
            out, cpu = self.execute(job, tracer)
            # the probe after one job is the probe before the next: the
            # outputs are checked once the pass is over
            rec.probes.append(calibrate(PROBE_STEPS))
            outcomes.append(out)
            rec.times.append(out.elapsed)
            rec.cpu += cpu
        for job, out in zip(self.jobs, outcomes):
            rec.steps += job.steps
            rec.warnings += out.warnings
            rec.out_bytes += len(out.stdout) + (len(out.output) if job.out_path else 0)
            problems = self.problems(job, out)
            if problems:
                rec.failures.append((job.id, problems))
        return rec


def _metric(value, unit):
    return {"value": value, "unit": unit}


def per_job_median(passes, attr):
    """Each job's median over `passes` of the PassRecord field `attr`."""
    return [statistics.median(job)
            for job in zip(*(getattr(p, attr) for p in passes))]


def end_to_end(passes, setup_times):
    # Each job's latency is the median of its host-adjusted times over the
    # run's passes.  Unadjusted per-job bests still moved by up to a third
    # between runs a minute apart, as whole runs fell into slow spells; the
    # adjusted medians moved by a few percent.
    latency = per_job_median(passes, "adjusted")
    wall = sum(latency)
    tail, pct, n = percentile_tail(latency)
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "wall_s": _metric(wall, "s"),
        "job_p50_s": _metric(statistics.median(latency), "s"),
        "job_tail_s": _metric(tail, "s"),
        "steps_per_s": _metric(passes[0].steps / wall, "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {"setup_s": f"median of {len(setup_times)} fresh interpreters",
             "job_tail_s": f"p{pct:.1f} of {n} jobs",
             "wall_s": f"each job's median of {len(passes)} passes, "
                       f"{sum(per_job_median(passes, 'times')):.4g} s unadjusted"}
    return metrics, notes


PER_LAYER_UNITS = {"calls": "count", "steps": "count", "points": "count",
                   "bytes": "bytes", "busy_s": "s", "self_s": "s",
                   "cpu_s": "s", "steps_per_s": "1/s",
                   "orbits_per_start": "orbits/start", "out_bytes": "bytes",
                   "warnings": "count", "overhead_frac": "ratio"}


def per_layer(plain, traced, layer_passes):
    values = combine_passes(layer_passes)
    values["cli.out_bytes"] = traced[0].out_bytes
    values["cli.warnings"] = traced[0].warnings
    values["process.cpu_s"] = statistics.median(p.cpu for p in traced)
    values["trace.overhead_frac"] = (statistics.median(p.wall for p in traced)
                                     / statistics.median(p.wall for p in plain) - 1.0)
    return {k: _metric(v, PER_LAYER_UNITS[k.rsplit(".", 1)[1]])
            for k, v in values.items()}


def check_untraced():
    """Refuse to time a pass while any tracer wrapper is installed."""
    leftover = installed_wrappers()
    if leftover:
        raise RuntimeError(f"tracer wrappers installed before timing: {leftover}")


def run_workload(args, out_dir):
    from workloads import build_jobs
    import warm

    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    warm.first_calls()
    jobs = build_jobs(args.workload, args.seed, out_dir)
    runner = Runner(jobs)
    calib_start = calibrate()
    plain, traced, layer_passes, spans, setups = [], [], [], [], []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        # the traced run needs no more than two pairs: its counts repeat exactly
        if len(plain) >= MIN_PASSES and (args.trace or elapsed >= args.seconds):
            break
        # set-ups spread over the run, so that setup_s samples the host over
        # the whole run as the per-job medians do
        if (not args.trace and len(setups) < SETUP_PROBES
                and elapsed >= len(setups) * args.seconds / SETUP_PROBES):
            setups.append(time_setup())
        check_untraced()
        plain.append(runner.run_pass())
        if args.trace:
            tracer = Tracer()
            with tracer:
                traced.append(runner.run_pass(tracer))
            layer_passes.append(layer_metrics(tracer.spans))
            if not spans:
                spans = tracer.spans
    calib_end = calibrate()

    env = environment(args)
    env.update(calibration_start_s=calib_start, calibration_end_s=calib_end,
               calibration_steps=CALIBRATION_STEPS,
               probe_median_s=statistics.median(
                   t for p in plain + traced for t in p.probes),
               probe_ref_s=PROBE_REF_S, pinned_cpu=cpu, jobs_per_pass=len(jobs),
               passes=len(plain), traced_passes=len(traced))
    print(json.dumps({"env": env}))
    records = plain + traced
    attempted = sum(len(p.times) for p in records)
    failed = sum(len(p.failures) for p in records)
    for p in records:
        for job_id, problems in p.failures[:5]:
            print(f"FAILED {job_id}: {'; '.join(problems)}")
    if args.trace:
        metrics = per_layer(plain, traced, layer_passes)
        notes = {}
        for job_id, ratio in orbits_per_start(spans)[1].items():
            print(f"orbits_per_start[{job_id}] {ratio:g}")
        spans_path = write_spans(spans, args)
        print(f"spans of the first traced pass: {spans_path}")
    else:
        metrics, notes = end_to_end(plain, setups)
    for name, m in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload:14s} {name:44s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"{args.workload:14s} {'failed_frac':44s} {failed / attempted:.6g} "
          f"ratio  ({failed} of {attempted} jobs)")
    print(f"{args.workload:14s} {'cli.warnings (all passes)':44s} "
          f"{sum(p.warnings for p in records)} count")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def write_spans(spans, args):
    """One JSON object per span of the first traced pass."""
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(dict(zip(SPAN_FIELDS, s))) + "\n")
    return path.relative_to(ROOT)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "kovtop" / "__init__.py").is_file():
        print(f"error: no kovtop package under {SRC}; run from a kovtop "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        result = run_all(args)
    else:
        tmp_root = ROOT / ".perfbench-tmp"
        tmp_root.mkdir(exist_ok=True)
        try:
            with tempfile.TemporaryDirectory(dir=tmp_root) as out_dir:
                result = run_workload(args, out_dir)
        finally:
            with contextlib.suppress(OSError):
                tmp_root.rmdir()
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in a child process of its own; their results merged,
    metric names prefixed with the workload.  None if a child fails."""
    results = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return None
        results.append(json.loads(lines[-1]))
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{k}": v for w, r in zip(WORKLOADS, results)
                        for k, v in r["metrics"].items()}}


if __name__ == "__main__":
    sys.exit(main())
