"""Span tracer for the traced run, installed from outside the package.

The tracer replaces public functions and methods of the `kovtop` modules by
wrappers that record one span per call: name, start, end, parent span, job
id, thread id, and a work count (orbit steps, evaluated points, bytes).  A
function is replaced at every module attribute that holds it, because callers
look names up in different places: `cli` binds `drift_batch` by name, while
`maps` reaches `kernels.map_orbit` through the module.  Spans stay in memory
until the run ends.  `remove` restores every original, and
`installed_wrappers` proves that none is left before untraced timing.

A span opened on a worker thread with no open span of its own takes as parent
the innermost open span of the thread that runs the jobs; `drift_batch` hands
its starts to a thread pool this way.  Self time only subtracts children on
the span's own thread, so time a span spends waiting for its pool stays in
its self time.
"""
from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time

import numpy as np

MARK = "_perfbench_span"

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "job", "thread", "work")
ID, NAME, START, END, PARENT, JOB, THREAD, WORK = range(len(SPAN_FIELDS))


def _orbit_steps(args, kwargs, result):
    return len(result[0]) - 1


def _length(args, kwargs, result):
    return len(result)


def _distinct_starts(args, kwargs, result):
    starts = args[2] if len(args) > 2 else kwargs["starts"]
    return int(np.unique(np.atleast_2d(np.asarray(starts, dtype=float)),
                         axis=0).shape[0])


#: (module, attribute path, work count taken from (args, kwargs, result))
TARGETS = (
    ("kernels", "map_orbit", _orbit_steps),
    ("kernels", "rk4_orbit", _orbit_steps),
    ("kernels", "map_step", None),
    ("maps", "DiscreteMap.step", None),
    ("maps", "DiscreteMap.orbit", None),
    ("flows", "rk4_states", None),
    ("flows", "integrate_reference", None),
    ("invariants", "Invariant.values", _length),
    ("invariants", "Invariant.reliable", None),
    ("invariants", "Invariant.in_domain", None),
    ("invariants", "drift_batch", _distinct_starts),
    ("invariants", "drift_report", None),
    ("invariants", "drift_to_json", None),
    ("invariants", "independence_rank", None),
    ("invariants", "volume_check", None),
    ("invariants", "defect_order", None),
    ("hk_engine", "hk_step", None),
    ("numdiff", "central_jacobian", None),
    ("numdiff", "central_gradient", None),
    ("changevar", "conjugacy_check", None),
    ("core", "TrajectoryRecord.to_csv", _length),
    ("core", "TrajectoryRecord.to_json", _length),
    ("core", "as_state", None),
    ("cli", "main", None),
)

ORBIT_SPANS = ("kernels.map_orbit", "kernels.rk4_orbit")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kovtop" or name.startswith("kovtop."))]


def _package_classes():
    seen = {}
    for mod in _package_modules():
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith("kovtop"):
                seen[id(value)] = value
    return list(seen.values())


def installed_wrappers() -> list[str]:
    """Names at which a tracer wrapper is still installed."""
    found = []
    for mod in _package_modules():
        found += [f"{mod.__name__}.{k}" for k, v in vars(mod).items()
                  if hasattr(v, MARK)]
    for cls in _package_classes():
        found += [f"{cls.__qualname__}.{k}" for k, v in vars(cls).items()
                  if hasattr(v, MARK)]
    return found


class Tracer:
    """Install with `with Tracer() as tr:`; spans are in `tr.spans`."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            span = [next(tracer._ids), name, 0.0, 0.0, parent, tracer.job,
                    threading.get_ident(), 0]
            stack.append(span[ID])
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if work is not None:
                span[WORK] = work(args, kwargs, result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self):
        self._main_stack = self._stack()
        modules = _package_modules()
        for modname, path, work in TARGETS:
            name = f"{modname}.{path}"
            home = sys.modules[f"kovtop.{modname}"]
            if "." in path:
                owner, attr = getattr(home, path.split(".")[0]), path.split(".")[1]
                orig = vars(owner)[attr]
                self._patch(owner, attr, self._wrap(name, orig, work))
                continue
            orig = getattr(home, path)
            wrapper = self._wrap(name, orig, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


# --- per-layer metrics ------------------------------------------------------

def span_stats(spans):
    """Per span name: calls, busy (summed duration), self time, work."""
    child_time = {}
    thread_of = {s[ID]: s[THREAD] for s in spans}
    for s in spans:
        p = s[PARENT]
        if p is not None and thread_of.get(p) == s[THREAD]:
            child_time[p] = child_time.get(p, 0.0) + (s[END] - s[START])
    stats = {}
    for s in spans:
        st = stats.setdefault(s[NAME], {"calls": 0, "busy": 0.0, "self": 0.0,
                                        "work": 0})
        dur = s[END] - s[START]
        st["calls"] += 1
        st["busy"] += dur
        st["self"] += dur - child_time.get(s[ID], 0.0)
        st["work"] += s[WORK]
    return stats


def orbits_per_start(spans):
    """Orbits computed inside drift_batch calls over the distinct starts
    they were given, overall and per job."""
    by_id = {s[ID]: s for s in spans}
    batches = {s[ID]: s for s in spans if s[NAME] == "invariants.drift_batch"}
    orbits = dict.fromkeys(batches, 0)
    for s in spans:
        if s[NAME] not in ORBIT_SPANS:
            continue
        p = s[PARENT]
        while p is not None and p not in batches:
            p = by_id[p][PARENT] if p in by_id else None
        if p is not None:
            orbits[p] += 1
    per_job = {}
    for bid, b in batches.items():
        o, n = per_job.get(b[JOB], (0, 0))
        per_job[b[JOB]] = (o + orbits[bid], n + b[WORK])
    total_o = sum(o for o, _ in per_job.values())
    total_n = sum(n for _, n in per_job.values())
    return (total_o / total_n if total_n else 0.0,
            {job: o / n for job, (o, n) in per_job.items() if n})


def _get(stats, name, key):
    return stats.get(name, {}).get(key, 0)


def layer_metrics(spans):
    """Per-layer metric values of one traced pass, by metric name."""
    st = span_stats(spans)

    def rate(name):
        busy = _get(st, name, "busy")
        return _get(st, name, "work") / busy if busy else 0.0

    out = {}
    for name in ORBIT_SPANS:
        out[f"{name}.calls"] = _get(st, name, "calls")
        out[f"{name}.steps"] = _get(st, name, "work")
        out[f"{name}.busy_s"] = _get(st, name, "busy")
        out[f"{name}.steps_per_s"] = rate(name)
    out["kernels.map_step.calls"] = _get(st, "kernels.map_step", "calls")
    out["kernels.map_step.busy_s"] = _get(st, "kernels.map_step", "busy")
    for name in ("maps.DiscreteMap.step", "maps.DiscreteMap.orbit",
                 "flows.rk4_states"):
        out[f"{name}.calls"] = _get(st, name, "calls")
        out[f"{name}.self_s"] = _get(st, name, "self")
    out["flows.integrate_reference.busy_s"] = _get(st, "flows.integrate_reference", "busy")
    values = "invariants.Invariant.values"
    out[f"{values}.calls"] = _get(st, values, "calls")
    out[f"{values}.points"] = _get(st, values, "work")
    out[f"{values}.busy_s"] = _get(st, values, "busy")
    for name in ("invariants.Invariant.reliable", "invariants.Invariant.in_domain"):
        out[f"{name}.busy_s"] = _get(st, name, "busy")
    batch = "invariants.drift_batch"
    out[f"{batch}.busy_s"] = _get(st, batch, "busy")
    out[f"{batch}.self_s"] = _get(st, batch, "self")
    out[f"{batch}.orbits_per_start"] = orbits_per_start(spans)[0]
    report = "invariants.drift_report"
    out[f"{report}.calls"] = _get(st, report, "calls")
    out[f"{report}.self_s"] = _get(st, report, "self")
    # thread-summed, to set beside drift_batch.busy_s (the wall time)
    out[f"{report}.busy_s"] = _get(st, report, "busy")
    for name in ("invariants.drift_to_json", "invariants.independence_rank",
                 "invariants.volume_check", "invariants.defect_order"):
        out[f"{name}.busy_s"] = _get(st, name, "busy")
    out["hk_engine.hk_step.calls"] = _get(st, "hk_engine.hk_step", "calls")
    out["hk_engine.hk_step.busy_s"] = _get(st, "hk_engine.hk_step", "busy")
    out["numdiff.central_jacobian.calls"] = _get(st, "numdiff.central_jacobian", "calls")
    out["numdiff.central_gradient.calls"] = _get(st, "numdiff.central_gradient", "calls")
    out["numdiff.busy_s"] = (_get(st, "numdiff.central_jacobian", "busy")
                             + _get(st, "numdiff.central_gradient", "busy"))
    out["changevar.conjugacy_check.busy_s"] = _get(st, "changevar.conjugacy_check", "busy")
    for name in ("core.TrajectoryRecord.to_csv", "core.TrajectoryRecord.to_json"):
        out[f"{name}.bytes"] = _get(st, name, "work")
        out[f"{name}.busy_s"] = _get(st, name, "busy")
    out["core.as_state.calls"] = _get(st, "core.as_state", "calls")
    out["cli.main.self_s"] = _get(st, "cli.main", "self")
    return out


def combine_passes(passes):
    """Times and rates: the median over the traced passes.  Counts: the
    first pass's, which every pass repeats."""
    timed = ("busy_s", "self_s", "steps_per_s")
    return {k: statistics.median(p[k] for p in passes) if k.endswith(timed)
            else passes[0][k] for k in passes[0]}
