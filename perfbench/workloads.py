"""Job lists of the four benchmark workloads, and the checks on their outputs.

Every workload is a fixed list of jobs derived from the workload seed.  A job
is either one `kovtop` command run through `kovtop.cli.main`, or one public
library call replaying an acceptance criterion at the criterion's own inputs.
The benchmark keeps its own copy of those inputs, so that editing the test
suite cannot change a workload.

Library functions are always looked up through their module (`invariants.
volume_check`, not a name bound here), so a tracer that replaces a module
attribute sees these calls too.

Each job carries a `check` that returns the problems found in its outcome
(an empty list when the output is correct), and the number of orbit
state-steps it delivers, worked out from its inputs before any timing.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import jsonschema
import numpy as np

from kovtop import changevar, flows, hk_engine, invariants, maps

SCHEMA_DIR = Path(flows.__file__).resolve().parent / "schemas"

# tolerances of the acceptance suite
DRIFT_TOL = 1e-9          # criterion 1
IDENTITY_TOL = 1e-12      # criteria 3 and 4, map conjugacies of criterion 5
FLOW_CONJUGACY_TOL = 1e-8  # criterion 5
VOLUME_TOL = 1e-5         # criterion 2
SLOPE_RANGE = (1.9, 2.1)  # criterion 7
PULLBACK_DEFECT_RANGE = (1.85, 2.15)  # criterion 8
HK_ROW_TOL = 1e-12        # trajectory rows against the generic engine

CONV_EPS = (0.01, 0.005, 0.0025, 0.00125)
CONV_TOTAL_TIME = 0.2
CONV_DT_REF = 1e-4
CONV_CASES = (("euler-hk", 3, (0.3, 0.4, 0.5)),
              ("gen-hk", 4, (0.2, 0.3, 0.4, 0.5)),
              ("alt-map", 4, (0.2, 0.3, 0.4, 0.5)))


@dataclass
class Outcome:
    """What one job produced.  `output` is the job's written text: the
    --out file when it has one, stdout otherwise."""

    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    output: str = ""
    value: object = None
    error: str | None = None
    warnings: int = 0
    elapsed: float = 0.0


@dataclass
class Job:
    id: str
    check: Callable[[Outcome], list[str]]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    out_path: Path | None = None
    steps: int = 0

    def signature(self):
        """The job's inputs, for comparing two job lists.  Library-call jobs
        replay fixed criterion inputs, so their id identifies them."""
        return (self.id, tuple(self.argv) if self.argv else None, self.steps)


def _schema(name):
    with open(SCHEMA_DIR / f"{name}.schema.json") as fh:
        return jsonschema.Draft202012Validator(json.load(fh))


def _fmt(y) -> str:
    return ",".join(repr(float(v)) for v in y)


def _seeds(rng, n):
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def admissible_states(n, dim, seed, low=0.1, high=2.0, min_sep=1e-2):
    """Random states with comfortably separated coordinates (the acceptance
    suite's sampler)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        y = rng.uniform(low, high, dim)
        if (np.abs(y[:, None] - y[None, :]) + np.eye(dim)).min() >= min_sep:
            out.append(y)
    return out


def cli_problems(out: Outcome, schema=None):
    """Exit status, exception and schema checks shared by every CLI job.
    Returns (problems, parsed JSON or None)."""
    if out.error is not None:
        return [f"raised {out.error}"], None
    if out.rc != 0:
        return [f"exit status {out.rc}: {out.stderr.strip()[:200]}"], None
    if schema is None:
        return [], None
    try:
        doc = json.loads(out.output)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"], None
    errors = [e.message for e in schema.iter_errors(doc)]
    if errors:
        return [f"schema: {m[:200]}" for m in errors[:3]], doc
    return [], doc


# --- drift ------------------------------------------------------------------

DRIFT_MAPS = (("gen-hk", 3), ("gen-hk", 4), ("gen-hk", 5),
              ("alt-map", 3), ("alt-map", 4), ("alt-map", 5),
              ("euler-hk", 3), ("cosine", 3), ("kov-sqrt", 3),
              ("kov-pullback", 3))

DRIFT_FLOWS = (("gen-kov", 4), ("kov3", 3), ("euler3", 3), ("gen-euler", 4))

_FLOWS = {"kov3": lambda n: flows.kovalevskaya3(),
          "euler3": lambda n: flows.euler_top3(),
          "gen-kov": lambda n: flows.generalized_kovalevskaya(n, 2.0),
          "gen-euler": lambda n: flows.generalized_euler(n)}


def drift_check(names, key, eps, steps, tol):
    """Check a drift JSON report: schema, one report per claimed invariant,
    and, when `tol` is given, every drift a number below it."""
    schema = _schema("drift")

    def check(out):
        problems, doc = cli_problems(out, schema)
        if problems:
            return problems
        if doc["status"] != "ok":
            return [f"status {doc['status']!r}"]
        got = [r["invariant"] for r in doc["reports"]]
        if got != names:
            return [f"reports {got} != claimed invariants {names}"]
        for r in doc["reports"]:
            if r["map"] != key or r["eps"] != eps or r["steps"] != steps:
                problems.append(f"{r['invariant']}: wrong map/eps/steps")
            drift = r["max_rel_drift"]
            if drift is None:
                problems.append(f"{r['invariant']}: no evaluable point")
            elif tol is not None and not drift < tol:
                problems.append(f"{r['invariant']}: drift {drift:.3e} >= {tol:g}")
        return problems

    return check


def _drift_job(kind, name, n, eps, steps, starts, seed, copy):
    if kind == "map":
        target = maps.get_map(name, n)
        orbit = lambda y0: target.orbit(y0, eps, steps,  # noqa: E731
                                        invariants.TRACKING_GUARDS)
        tol = DRIFT_TOL
    else:
        target = _FLOWS[name](n)
        orbit = lambda y0: flows.rk4_states(target, y0, eps, steps)  # noqa: E731
        tol = None
    names = [v.name for v in invariants.claimed_invariants(
        target, invariants.registry(target.dim))]
    # each start's certified window, counted once however often the program
    # recomputes the orbit
    window = sum(int(orbit(y0)[1])
                 for y0 in invariants.random_starts(starts, target.dim, seed))
    key = target.name.split("(")[0]
    argv = ["drift", f"--{kind}", name, "--n", str(n), "--eps", repr(eps),
            "--steps", str(steps), "--starts", str(starts),
            "--seed", str(seed), "--format", "json"]
    return Job(id=f"drift {name} N={n} #{copy}", argv=argv, steps=window,
               check=drift_check(names, key, eps, steps, tol))


#: each drift command runs at this many CLI seeds, with this many starts each
#: (two, so that drift_batch uses its thread pool), so that a job list has at
#: least a hundred jobs: a tail at p90 with ten jobs beyond it
MAP_DRIFT_SEEDS, FLOW_DRIFT_SEEDS = 10, 25
DRIFT_STARTS = 2


def _drift_jobs(kind, targets, copies, seed, eps, steps, starts):
    seeds = iter(_seeds(np.random.default_rng(seed), len(targets) * copies))
    return [_drift_job(kind, name, n, eps, steps, starts, next(seeds), k)
            for k in range(1, copies + 1) for name, n in targets]


# A guarded map orbit from the CLI's start box [0.1, 2]^N runs at least 8
# steps before a guard ends it (gen-hk N=5, the shortest, over 2000 seeded
# starts; most targets run 20 or more).  With 8 steps every window is whole,
# as with the flows below: the work does not depend on the seed, and a pass is
# short enough for each job to be timed some fifteen times in a run.
MAP_DRIFT_STEPS = 8


def drift_maps_jobs(seed, out_dir):
    return _drift_jobs("map", DRIFT_MAPS, MAP_DRIFT_SEEDS, seed, 0.01,
                       MAP_DRIFT_STEPS, DRIFT_STARTS)


# Flow orbits from the CLI's start box [0.1, 2]^N reach their pole no sooner
# than the corner start (2, ..., 2) does: after 125 steps of gen-euler N=4 at
# dt = 0.001, 250 of gen-kov N=4, 500 of kov3 and euler3 (the flows are
# cooperative, so a larger start blows up earlier).  With 8 steps every
# window is whole and the work does not depend on where the seed puts the
# starts; with 2000 steps the pass time moved by about a fifth between seeds.
# RK4 still takes about four fifths of drift_report's busy time.
FLOW_STEPS = 8


def drift_flows_jobs(seed, out_dir):
    return _drift_jobs("flow", DRIFT_FLOWS, FLOW_DRIFT_SEEDS, seed, 0.001,
                       FLOW_STEPS, DRIFT_STARTS)


# --- trajectories -----------------------------------------------------------

TRAJ_MAPS = (("gen-hk", 4), ("alt-map", 6), ("euler-hk", 3), ("kov-sqrt", 3))
TRAJ_FLOWS = (("kov3", 3), ("euler3", 3), ("gen-kov", 4))
#: each (target, format) pair runs from this many starts, so that the job list
#: has more than a hundred jobs (a tail at p90 with ten jobs beyond it); the
#: orbits are short enough for each job to be timed some fifteen times in a run
TRAJ_COPIES = 8
MAP_EPS, MAP_STEPS = 1e-4, 250
SIM_T_END, SIM_DT = 0.0125, 1e-4
HK_SAMPLES = 16
_TRAJ_SCHEMA = _schema("trajectory")


def parse_trajectory(text, fmt):
    """(times, states, invariant names, invariant columns, status) from a
    trajectory written as CSV or JSON; JSON is checked against its schema."""
    if fmt == "json":
        doc = json.loads(text)
        errors = [e.message for e in _TRAJ_SCHEMA.iter_errors(doc)]
        if errors:
            raise ValueError(f"schema: {errors[0][:200]}")
        rows = doc["rows"]
        if [r["step"] for r in rows] != list(range(len(rows))):
            raise ValueError("step column is not 0, 1, 2, ...")
        names = list(rows[0].get("invariants", {})) if rows else []
        inv = np.array([[r["invariants"][k] for k in names] for r in rows]) \
            if names else None
        return (np.array([r["t"] for r in rows], dtype=float),
                np.array([r["y"] for r in rows], dtype=float), names, inv,
                doc["status"])
    lines = text.splitlines()
    header = lines[0].split(",")
    n = sum(1 for h in header if h.startswith("y_"))
    if header[:2 + n] != ["step", "t"] + [f"y_{i + 1}" for i in range(n)]:
        raise ValueError(f"unexpected CSV header {header[:6]}")
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if table.shape[1] != len(header):
        raise ValueError("ragged CSV rows")
    if not np.array_equal(table[:, 0], np.arange(len(table))):
        raise ValueError("step column is not 0, 1, 2, ...")
    inv = table[:, 2 + n:] if len(header) > 2 + n else None
    return table[:, 1], table[:, 2:2 + n], header[2 + n:], inv, "ok"


def trajectory_check(y0, nsteps, step_time, fmt, names=(), hk=None, seed=0):
    """Rows, first state, times, finiteness and invariant columns of a
    trajectory; with `hk` = (system, eps), sampled rows must agree with the
    generic bilinear engine's step."""

    def check(out):
        problems, _ = cli_problems(out)
        if problems:
            return problems
        try:
            times, states, got_names, inv, status = parse_trajectory(
                out.output, fmt)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"unparseable trajectory: {exc}"]
        if status != "ok":
            return [f"status {status!r}"]
        if states.shape != (nsteps + 1, len(y0)):
            return [f"states shape {states.shape} != {(nsteps + 1, len(y0))}"]
        if not np.array_equal(states[0], y0):
            problems.append("first row is not the start")
        if not np.all(np.isfinite(states)):
            problems.append("non-finite state")
        expect_t = step_time * np.arange(nsteps + 1)
        if np.max(np.abs(times - expect_t)) > 1e-12 * max(1.0, expect_t[-1]):
            problems.append("time column is not k * step time")
        if list(got_names) != list(names):
            problems.append(f"invariant columns {got_names} != {list(names)}")
        elif names and not np.all(np.isfinite(inv)):
            problems.append("non-finite invariant value")
        if hk is not None:
            system, eps = hk
            rng = np.random.default_rng(seed)
            for k in rng.choice(nsteps, size=HK_SAMPLES, replace=False):
                a = hk_engine.hk_step(system, states[k], eps)
                b = states[k + 1]
                r = float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a))))
                if not r < HK_ROW_TOL:
                    problems.append(f"row {k + 1} differs from hk_step by {r:.3e}")
        return problems

    return check


def trajectories_jobs(seed, out_dir):
    rng = np.random.default_rng(seed)
    jobs = []
    nsteps = round(SIM_T_END / SIM_DT)
    for k in range(1, TRAJ_COPIES + 1):
        for name, n in TRAJ_MAPS:
            y0 = rng.uniform(0.1, 2.0, n)
            m = maps.get_map(name, n)
            hk = None
            if name == "gen-hk":
                hk = (hk_engine.polarize(flows.kovalevskaya_field(n)), MAP_EPS)
            for fmt in ("csv", "json"):
                path = Path(out_dir) / f"map-{name}-{k}.{fmt}"
                argv = ["map", "--map", name, "--n", str(n), "--y0", _fmt(y0),
                        "--eps", repr(MAP_EPS), "--steps", str(MAP_STEPS),
                        "--format", fmt, "--out", str(path)]
                jobs.append(Job(
                    id=f"map {name} N={n} {fmt} #{k}", argv=argv, out_path=path,
                    steps=MAP_STEPS + 1,
                    check=trajectory_check(y0, MAP_STEPS, m.step_time(MAP_EPS),
                                           fmt, hk=hk, seed=seed)))
        for name, n in TRAJ_FLOWS:
            # the flows reach a pole before t = 1 from much of [0.1, 2]^N (the
            # command then exits 2); below 0.5 no start of 200 seeds did
            y0 = rng.uniform(0.1, 0.5, n)
            flow = _FLOWS[name](n)
            names = [v.name for v in invariants.claimed_invariants(
                flow, invariants.registry(n))]
            for fmt in ("csv", "json"):
                path = Path(out_dir) / f"simulate-{name}-{k}.{fmt}"
                argv = ["simulate", "--flow", name, "--n", str(n), "--y0", _fmt(y0),
                        "--t-end", repr(SIM_T_END), "--dt", repr(SIM_DT),
                        "--with-invariants", "--format", fmt, "--out", str(path)]
                jobs.append(Job(
                    id=f"simulate {name} N={n} {fmt} #{k}", argv=argv,
                    out_path=path, steps=nsteps + 1,
                    check=trajectory_check(y0, nsteps, SIM_DT, fmt, names=names)))
    return jobs


# --- scalar checks ----------------------------------------------------------

IDENTITIES = ("n4-poly", "s-relations", "r-reciprocity", "step-ratio",
              "d-sum", "r-product", "phi-eq", "sqrt-comp", "engine")


def _family_cases():
    """(family, N, alpha, expected rank) as criterion 6 states them."""
    cases = [("kov-poly", 3, 2.0, 2), ("kov-hk-eps", 3, 2.0, 2),
             ("kov-sqrt-eps", 3, 2.0, 2)]
    for n in (3, 4, 5):
        cases += [("flow-power", n, 2.0, n - 1),
                  ("flow-power(alpha=1.3)", n, 1.3, n - 1),
                  ("cross-ratio", n, 2.0, n - 2)]
    cases += [("genhk4-phi", 4, 2.0, 3), ("altmap4-phi", 4, 2.0, 3)]
    return cases


def _check_identity(identity, trials):
    schema = _schema("check")

    def check(out):
        problems, doc = cli_problems(out, schema)
        if problems:
            return problems
        if doc["identity"] != identity or doc["trials"] != trials:
            return ["wrong identity or trial count"]
        if not doc["max_residual"] < IDENTITY_TOL:
            return [f"residual {doc['max_residual']:.3e} >= {IDENTITY_TOL:g}"]
        return []

    return check


def _check_ranks(family, n, points, expected):
    schema = _schema("independence")

    def check(out):
        problems, doc = cli_problems(out, schema)
        if problems:
            return problems
        if doc["family"] != family or doc["n"] != n:
            return ["wrong family or dimension"]
        if doc["ranks"] != [expected] * points:
            return [f"ranks {doc['ranks']} != {expected}"]
        return []

    return check


def _check_slope(eps_list):
    schema = _schema("convergence")

    def check(out):
        problems, doc = cli_problems(out, schema)
        if problems:
            return problems
        if [r["eps"] for r in doc["rows"]] != list(eps_list):
            return ["rows do not follow --eps-list"]
        lo, hi = SLOPE_RANGE
        slope = doc["slope"]
        if slope is None or not lo <= slope <= hi:
            return [f"slope {slope} outside [{lo}, {hi}]"]
        return []

    return check


def _check_value(ok, what):
    """Check a library call's returned value with the predicate `ok`."""

    def check(out):
        if out.error is not None:
            return [f"raised {out.error}"]
        if not ok(out.value):
            return [f"{what}: got {out.value!r}"]
        return []

    return check


def _below(tol):
    return lambda v: v < tol


def _volume_jobs():
    """Criterion 2: finite-difference Jacobians against psi(ynew)/psi(y)."""
    cases = [(maps.euler_hk(), [invariants.density_euler_hk(j) for j in range(3)], 0.05),
             (maps.gen_hk(3), [invariants.density_kov_hk(j) for j in range(3)], 0.05),
             (maps.kov_sqrt(), [invariants.density_kov_product(0, 1),
                                invariants.density_kov_product(1, 2)], 0.05),
             (maps.kov_pullback(), [invariants.density_kov_product(0, 1),
                                    invariants.density_kov_product(2, 0)], 0.05)]
    for n in (3, 4, 5, 6):
        psis = [invariants.density_cross_power(0, 1),
                invariants.density_cross_power(n - 2, n - 1)]
        cases += [(maps.gen_hk(n), psis, 0.05), (maps.alt_map(n), psis, 0.02)]
    jobs = []
    for m, psis, eps in cases:
        pts = admissible_states(50, m.dim, seed=102)

        def call(m=m, psis=psis, eps=eps, pts=pts):
            return max(invariants.volume_check(m, psi, y, eps)
                       for y in pts for psi in psis)

        jobs.append(Job(id=f"volume {m.name} N={m.dim}", call=call,
                        check=_check_value(_below(VOLUME_TOL), "volume residual")))
    return jobs


def _composition_jobs():
    """Criterion 4: square-root compositions and reversibility round trips."""
    rng = np.random.default_rng(104)
    maps3 = (maps.euler_hk(), maps.cosine_law(), maps.kov_sqrt(),
             maps.kov_pullback(), maps.gen_hk(3), maps.alt_map(3))
    maps5 = (maps.gen_hk(5), maps.alt_map(5))
    pairs = ((maps.cosine_law(), maps.euler_hk()),
             (maps.kov_sqrt(), maps.kov_pullback()))
    jobs = []
    for trial in range(25):
        y = rng.uniform(0.1, 2.0, 3)
        eps = rng.uniform(0.005, 0.1)
        y5 = rng.uniform(0.1, 2.0, 5)

        def call(y=y, eps=eps, y5=y5):
            res = [np.max(np.abs(h.step(h.step(y, eps), eps) - f.step(y, eps)))
                   for h, f in pairs]
            res.append(np.max(np.abs(maps3[5].step(y, eps) - maps3[2].step(y, eps))))
            res += [np.max(np.abs(m.step(m.step(y, eps), -eps) - y)) for m in maps3]
            res += [np.max(np.abs(m.step(m.step(y5, eps), -eps) - y5)) for m in maps5]
            return float(max(res))

        jobs.append(Job(id=f"composition trial {trial}", call=call,
                        check=_check_value(_below(IDENTITY_TOL), "composition residual")))
    return jobs


def _conjugacy_jobs():
    """Criterion 5: map and flow conjugacies through the changes of variables."""
    rng = np.random.default_rng(105)
    lin, nl = changevar.linear_cv(), changevar.nonlinear_cv3()
    map_cases = ((lin, maps.euler_hk(), maps.gen_hk(3)),
                 (nl, maps.euler_hk(), maps.kov_pullback()),
                 (nl, maps.cosine_law(), maps.kov_sqrt()))
    e3, k3 = flows.euler_top3(), flows.kovalevskaya3()
    jobs = []
    for trial in range(10):
        x = rng.uniform(0.2, 1.2, 3)
        eps = rng.uniform(0.005, 0.08)

        def call(x=x, eps=eps):
            return ([changevar.conjugacy_check(cv, up, down, x, eps)
                     for cv, up, down in map_cases],
                    [changevar.conjugacy_check(cv, e3, k3, x, 0.0)
                     for cv in (lin, nl)])

        jobs.append(Job(
            id=f"conjugacy trial {trial}", call=call,
            check=_check_value(lambda v: max(v[0]) < IDENTITY_TOL
                               and max(v[1]) < FLOW_CONJUGACY_TOL,
                               "conjugacy residuals")))
    for n in (3, 4, 5):
        g = changevar.gen_cv(n)
        up, down = flows.generalized_euler(n), flows.generalized_kovalevskaya(n, 2.0)
        for trial in range(5):
            x = rng.uniform(0.3, 1.2, n)
            jobs.append(Job(
                id=f"conjugacy gen_cv N={n} trial {trial}",
                call=lambda g=g, up=up, down=down, x=x:
                    changevar.conjugacy_check(g, up, down, x, 0.0),
                check=_check_value(_below(FLOW_CONJUGACY_TOL),
                                   "flow conjugacy residual")))
    return jobs


def _rank_jobs():
    """Criterion 6: independence ranks, one job per (family, point)."""
    pts3 = admissible_states(10, 3, seed=106)
    checks = [("poly K family", invariants.kov_poly_integrals(), pts3, 0.0, 2),
              ("deformed K (hk)", invariants.kov_hk_integrals(), pts3, 0.01, 2),
              ("deformed K (sqrt)", invariants.kov_product_integrals(), pts3, 0.01, 2)]
    for n in (3, 4, 5):
        pts = admissible_states(10, n, seed=106 + n)
        checks += [(f"power family N={n}", invariants.flow_power_integrals(n),
                    pts, 0.0, n - 1),
                   (f"power family N={n} alpha=1.3",
                    invariants.flow_power_integrals(n, 1.3), pts, 0.0, n - 1),
                   (f"cross-ratios N={n}", invariants.cross_ratio_integrals(n),
                    pts, 0.01, n - 2)]
    pts4 = admissible_states(10, 4, seed=116)
    checks += [("N=4 deformed (hk)", invariants.genhk_n4_integrals(), pts4, 0.01, 3),
               ("N=4 deformed (alt)", invariants.altmap_n4_integrals(), pts4, 0.01, 3)]
    jobs = []
    for label, invs, pts, eps, expected in checks:
        for k, y in enumerate(pts):
            jobs.append(Job(
                id=f"rank {label} point {k}",
                call=lambda invs=invs, y=y, eps=eps:
                    invariants.independence_rank(invs, y, eps),
                check=_check_value(lambda v, e=expected: v == e,
                                   f"rank (expected {expected})")))
    return jobs


def _defect_jobs():
    """Criterion 8: defect orders of exact and approximate integrals."""
    eps_list = [0.05, 0.04, 0.03, 0.02, 0.01]
    y3 = np.array([0.3, 0.4, 0.5])
    y4 = np.array([0.3, 0.4, 0.5, 0.6])
    y5 = np.array([0.3, 0.4, 0.5, 0.6, 0.7])
    lo, hi = PULLBACK_DEFECT_RANGE
    exact = lambda v: v == math.inf  # noqa: E731
    cases = [("gen-hk N=3 exact", maps.gen_hk(3), invariants.kov_hk_integrals()[0], y3, exact),
             ("gen-hk N=4 exact", maps.gen_hk(4), invariants.genhk_n4_integrals()[0], y4, exact),
             ("alt-map N=4 exact", maps.alt_map(4), invariants.altmap_n4_integrals()[0], y4, exact),
             ("kov-pullback K23", maps.kov_pullback(), invariants.kov_poly_integrals()[0], y3,
              lambda v: lo < v < hi),
             ("gen-hk N=5 naive", maps.gen_hk(5), invariants.flow_power_integrals(5)[0], y5,
              math.isfinite)]
    return [Job(id=f"defect {label}",
                call=lambda m=m, inv=inv, y=y:
                    invariants.defect_order(m, inv, y, eps_list),
                check=_check_value(ok, "defect order"))
            for label, m, inv, y, ok in cases]


def scalar_checks_jobs(seed, out_dir):
    rng = np.random.default_rng(seed)
    jobs = []
    trials = 100
    for identity, s in zip(IDENTITIES, _seeds(rng, len(IDENTITIES))):
        jobs.append(Job(
            id=f"check {identity}",
            argv=["check", "--identity", identity, "--trials", str(trials),
                  "--seed", str(s), "--format", "json"],
            check=_check_identity(identity, trials)))
    cases = _family_cases()
    points = 10
    for (family, n, alpha, expected), s in zip(cases, _seeds(rng, len(cases))):
        argv = ["independence", "--family", family, "--n", str(n),
                "--points", str(points), "--seed", str(s), "--format", "json"]
        if alpha != 2.0:
            argv += ["--alpha", repr(alpha)]
        jobs.append(Job(id=f"independence {family} N={n}", argv=argv,
                        check=_check_ranks(family, n, points, expected)))
    for name, n, y0 in CONV_CASES:
        m = maps.get_map(name, n)
        # orbit state-steps: the map iterates at each eps plus the RK4 reference
        steps = sum(round(CONV_TOTAL_TIME / m.step_time(e)) for e in CONV_EPS) \
            + round(CONV_TOTAL_TIME / CONV_DT_REF)
        jobs.append(Job(
            id=f"convergence {name} N={n}",
            argv=["convergence", "--map", name, "--n", str(n), "--y0", _fmt(y0),
                  "--eps-list", ",".join(repr(e) for e in CONV_EPS),
                  "--format", "json"],
            steps=steps, check=_check_slope(CONV_EPS)))
    jobs += _volume_jobs()
    jobs += _composition_jobs()
    jobs += _conjugacy_jobs()
    jobs += _rank_jobs()
    jobs += _defect_jobs()
    return jobs


_JOB_LISTS = {"drift-maps": drift_maps_jobs, "drift-flows": drift_flows_jobs,
             "trajectories": trajectories_jobs,
             "scalar-checks": scalar_checks_jobs}


def build_jobs(workload: str, seed: int, out_dir) -> list[Job]:
    """The fixed job list of `workload` for this seed; --out files go to
    `out_dir`."""
    return _JOB_LISTS[workload](seed, out_dir)
