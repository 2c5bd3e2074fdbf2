"""Command-line front end: simulations, drift studies, convergence studies,
identity checks, and independence ranks, emitting CSV or JSON.

Exit codes: 0 success, 1 invalid configuration, 2 domain/singularity abort
(JSON output still written with a "status" field; CSV keeps its pinned
column schema, so aborts are reported on stderr).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import maps as maps_mod
from .core import TrajectoryRecord, as_state, fmt17
from .errors import (BlowupError, ConfigError, DomainError, KovtopError,
                     ParameterError, SingularStepError)
from .flows import (FlowSpec, _steps_for, euler_top3, generalized_euler,
                    generalized_kovalevskaya, integrate_reference,
                    kovalevskaya3, rk4_states)
from .invariants import (claimed_invariants, drift_batch, drift_to_csv,
                         drift_to_json, independence_rank, random_starts,
                         registry, verify_phi_functional_equation,
                         verify_poly_identity_N4, verify_relation_qq,
                         phi_genhk3, phi_genhk4)
from .maps import (DiscreteMap, get_map, MAP_NAMES, d_factors, d_polynomial,
                   r_factor, r_reciprocity_residual, s_relation_residuals)

FLOW_NAMES = ("kov3", "euler3", "gen-kov", "gen-euler")

IDENTITY_NAMES = ("n4-poly", "s-relations", "r-reciprocity", "step-ratio",
                  "d-sum", "r-product", "phi-eq", "sqrt-comp", "engine")


# argparse's own pattern takes only -<digits> and -<digits>.<digits> for a
# negative number; this one also takes an exponent, as in `--eps -1e-3`
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; this tool reserves 2 for
    runtime aborts, so config errors are rethrown and mapped to 1."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise ConfigError(message)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list {text!r}") from exc


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `kovtop` argument parser, built on the first call and shared for
    the life of the process, so that repeated `main` calls pay for it once.
    Do not mutate it.  argparse keeps no per-parse state on a parser, so
    the parses that share it are independent."""
    p = _Parser(prog="kovtop", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("simulate", help="integrate a flow with RK4")
    sp.add_argument("--flow", required=True, choices=FLOW_NAMES)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--alpha", type=_finite_float, default=2.0)
    sp.add_argument("--y0", required=True)
    sp.add_argument("--t-end", type=_finite_float, required=True)
    sp.add_argument("--dt", type=_finite_float, required=True)
    sp.add_argument("--with-invariants", action="store_true")
    common(sp)

    sp = sub.add_parser("map", help="iterate a discrete map")
    sp.add_argument("--map", required=True, choices=MAP_NAMES)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--y0", required=True)
    sp.add_argument("--eps", type=_finite_float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    common(sp)

    sp = sub.add_parser("drift", help="conserved-quantity drift study")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--map", choices=MAP_NAMES)
    grp.add_argument("--flow", choices=FLOW_NAMES)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--alpha", type=_finite_float, default=2.0)
    sp.add_argument("--y0", default=None)
    sp.add_argument("--starts", type=int, default=20)
    sp.add_argument("--eps", type=_finite_float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--invariant", default=None,
                    help="restrict to one invariant name")
    common(sp)

    sp = sub.add_parser("convergence", help="order-of-accuracy study vs RK4")
    sp.add_argument("--map", required=True, choices=MAP_NAMES)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--y0", required=True)
    sp.add_argument("--total-time", type=_finite_float, default=0.2)
    sp.add_argument("--eps-list", required=True)
    sp.add_argument("--dt-ref", type=_finite_float, default=1e-4)
    common(sp)

    sp = sub.add_parser("check", help="exact-identity battery")
    sp.add_argument("--identity", required=True, choices=IDENTITY_NAMES)
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--eps", type=_finite_float, default=None,
                    help="fixed eps (default: drawn per trial from [0.01, 0.3])")
    common(sp)

    sp = sub.add_parser("independence", help="functional-independence rank")
    sp.add_argument("--family", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=_finite_float, default=2.0)
    sp.add_argument("--points", type=int, default=10)
    sp.add_argument("--eps", type=_finite_float, default=0.01)
    common(sp)

    return p


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _at_alpha(build, n: int, alpha: float):
    """build(n, alpha), for the gen-kov flow or the invariant registry.  Both
    reject alpha = N, where the power-law integrals divide by N - alpha; that
    is an invalid configuration, not a runtime abort."""
    try:
        return build(n, alpha)
    except ParameterError as exc:
        raise ConfigError(
            f"--alpha must differ from the dimension N={n}") from exc


def _make_flow(name: str, n: int | None, alpha: float) -> FlowSpec:
    if name in ("kov3", "euler3"):
        if n not in (None, 3):
            raise ConfigError(f"--flow {name} is three-dimensional, not N={n}")
        return kovalevskaya3() if name == "kov3" else euler_top3()
    if name == "gen-kov":
        return _at_alpha(generalized_kovalevskaya, n, alpha)
    return generalized_euler(n)


def _trajectory_output(traj: TrajectoryRecord, fmt: str, out):
    _emit(traj.to_csv() if fmt == "csv" else traj.to_json(), out)


def _cmd_simulate(args) -> int:
    y0 = _parse_floats(args.y0)
    flow = _make_flow(args.flow, args.n, args.alpha)
    if len(y0) != flow.dim:
        raise ConfigError(f"--y0 must list {flow.dim} coordinates")
    try:
        nsteps = _steps_for(args.t_end, args.dt)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    states, end = rk4_states(flow, np.asarray(y0), args.dt, nsteps)
    status = "ok" if end == nsteps else "blowup"
    times = args.dt * np.arange(end + 1)
    rec = TrajectoryRecord(system=flow.name, times=times, states=states,
                           status=status)
    if args.with_invariants:
        invs = claimed_invariants(flow, _at_alpha(registry, flow.dim,
                                                  args.alpha))
        rec.invariant_names = [v.name for v in invs]
        cols = [v.values(states, 0.0) for v in invs]
        rec.invariants = np.stack(cols, axis=1) if cols else None
    _trajectory_output(rec, args.format, args.out)
    if status != "ok":
        print(f"blowup at step {end + 1}", file=sys.stderr)
        return 2
    return 0


def _cmd_map(args) -> int:
    y0 = _parse_floats(args.y0)
    m = get_map(args.map, args.n if args.n is not None else len(y0))
    if len(y0) != m.dim:
        raise ConfigError(f"--y0 must list {m.dim} coordinates")
    if args.steps < 0:
        raise ConfigError("--steps must be >= 0")
    states, end = m.orbit(np.asarray(y0), args.eps, args.steps)
    status = "ok" if end == args.steps else "singular"
    times = m.step_time(args.eps) * np.arange(end + 1)
    rec = TrajectoryRecord(system=m.name, times=times, states=states,
                           status=status)
    _trajectory_output(rec, args.format, args.out)
    if status != "ok":
        print(f"singular/blowup stop at step {end + 1}", file=sys.stderr)
        return 2
    return 0


def _cmd_drift(args) -> int:
    y0 = None if args.y0 is None else _parse_floats(args.y0)
    dim = args.n
    if dim is None and y0 is not None:
        dim = len(y0)
    if dim is None and args.flow not in ("kov3", "euler3"):
        raise ConfigError("drift needs --n or --y0 to fix the dimension")
    target = (get_map(args.map, dim) if args.map is not None
              else _make_flow(args.flow, dim, args.alpha))
    invs = claimed_invariants(target,
                              _at_alpha(registry, target.dim, args.alpha))
    if args.invariant is not None:
        invs = [v for v in invs if v.name == args.invariant]
        if not invs:
            raise ConfigError(f"no registered invariant {args.invariant!r} "
                              f"claimed for {target.name}")
    if not invs:
        raise ConfigError(f"no invariants registered for {target.name}")
    if y0 is not None:
        if len(y0) != target.dim:
            raise ConfigError(f"--y0 must list {target.dim} coordinates")
        starts = [y0]
    elif args.starts < 1:
        raise ConfigError("--starts must be >= 1")
    else:
        starts = random_starts(args.starts, target.dim, args.seed)
    reports = drift_batch(target, invs, starts, args.eps, args.steps)
    _emit(drift_to_csv(reports) if args.format == "csv"
          else drift_to_json(reports), args.out)
    return 0


_MAP_FLOW_PAIR = {
    "euler-hk": lambda n: euler_top3(),
    "cosine": lambda n: euler_top3(),
    "kov-sqrt": lambda n: kovalevskaya3(),
    "kov-pullback": lambda n: kovalevskaya3(),
    "gen-hk": lambda n: generalized_kovalevskaya(n, 2.0),
    "alt-map": lambda n: generalized_kovalevskaya(n, 2.0),
}


def convergence_study(m: DiscreteMap, flow: FlowSpec, y0, total_time: float,
                      eps_list, dt_ref: float = 1e-4):
    """Error of k map applications against the RK4 reference at the same
    total time, k = total_time / (scale * eps).  Returns (rows, slope); slope
    is None when fewer than two eps values are given."""
    y0 = as_state(y0, m.dim)
    nref = max(1, round(total_time / dt_ref))
    ref = integrate_reference(flow, y0, total_time, total_time / nref)
    target = ref.states[-1]
    rows = []
    for eps in eps_list:
        k = round(total_time / m.step_time(eps))
        if k < 1 or abs(k * m.step_time(eps) - total_time) > 1e-9 * total_time:
            raise ParameterError(
                f"eps={eps} does not tile total time {total_time}")
        y = y0
        for _ in range(k):
            y = m.step(y, eps)
        rows.append((eps, float(np.max(np.abs(y - target)))))
    slope = None
    if len(rows) >= 2:
        le = np.log([r[0] for r in rows])
        lv = np.log([max(r[1], 1e-300) for r in rows])
        slope = float(np.polyfit(le, lv, 1)[0])
    return rows, slope


def _cmd_convergence(args) -> int:
    y0 = _parse_floats(args.y0)
    m = get_map(args.map, args.n if args.n is not None else len(y0))
    if len(y0) != m.dim:
        raise ConfigError(f"--y0 must list {m.dim} coordinates")
    eps_list = _parse_floats(args.eps_list)
    if not eps_list or not all(0 < e < math.inf for e in eps_list):
        raise ConfigError("--eps-list must be positive and finite")
    if sorted(eps_list, reverse=True) != eps_list:
        raise ConfigError("--eps-list must be strictly decreasing")
    flow = _MAP_FLOW_PAIR[m.name](m.dim)
    rows, slope = convergence_study(m, flow, np.asarray(y0), args.total_time,
                                    eps_list, args.dt_ref)
    if args.format == "csv":
        lines = ["eps,error"] + [f"{fmt17(e)},{fmt17(v)}" for e, v in rows]
        _emit("\n".join(lines) + "\n", args.out)
        print("slope undefined" if slope is None else f"slope {slope:.6f}",
              file=sys.stderr)
    else:
        _emit(json.dumps({"status": "ok",
                          "rows": [{"eps": e, "error": v} for e, v in rows],
                          "slope": slope}), args.out)
    return 0


# polynomial identities tolerate any eps; step-based ones are checked on the
# resolvable region (moderate eps, non-strained steps)
_EPS_RANGE = {"n4-poly": (0.01, 0.3), "d-sum": (0.01, 0.3),
              "r-product": (0.01, 0.3), "phi-eq": (0.01, 0.05)}


def _check_battery(identity: str, n: int, trials: int, seed: int,
                   eps_fixed: float | None) -> float:
    rng = np.random.default_rng(seed)
    starts = random_starts(trials, n, seed)
    lo, hi = _EPS_RANGE.get(identity, (0.01, 0.1))
    worst = 0.0
    evaluated = 0
    for y in starts:
        eps = eps_fixed if eps_fixed is not None else float(rng.uniform(lo, hi))
        try:
            if identity == "n4-poly":
                worst = max(worst, verify_poly_identity_N4(y, eps))
            elif identity == "s-relations":
                r1, r2 = s_relation_residuals(y, eps)
                worst = max(worst, r1, r2)
            elif identity == "r-reciprocity":
                worst = max(worst, r_reciprocity_residual(y, eps))
            elif identity == "step-ratio":
                worst = max(worst, verify_relation_qq(maps_mod.gen_hk(n), y, eps))
                worst = max(worst, verify_relation_qq(maps_mod.alt_map(n), y, eps))
            elif identity == "d-sum":
                d, _ = d_factors(y, eps)
                worst = max(worst, abs(float(d.sum()) - 4.0))
            elif identity == "r-product":
                lhs = r_factor(y, eps) * float(np.prod(1.0 + eps * y))
                worst = max(worst, abs(lhs - d_polynomial(y, eps)))
            elif identity == "phi-eq":
                phi = phi_genhk3() if n == 3 else phi_genhk4()
                worst = max(worst, verify_phi_functional_equation(n, y, eps, phi))
            elif identity == "sqrt-comp":
                for half, full in ((maps_mod.cosine_law(), maps_mod.euler_hk()),
                                   (maps_mod.kov_sqrt(), maps_mod.kov_pullback())):
                    twice = half.step(half.step(y, eps), eps)
                    once = full.step(y, eps)
                    worst = max(worst, float(np.max(np.abs(twice - once))
                                             / (1.0 + np.max(np.abs(once)))))
            elif identity == "engine":
                from .flows import kovalevskaya_field
                from .hk_engine import hk_step, polarize
                sys_ = polarize(kovalevskaya_field(n))
                a = hk_step(sys_, y, eps)
                b = maps_mod.gen_hk(n).step(y, eps)
                worst = max(worst, float(np.max(np.abs(a - b))
                                         / (1.0 + np.max(np.abs(a)))))
            else:
                raise ConfigError(f"unknown identity {identity!r}")
        except (DomainError, SingularStepError):
            if eps_fixed is not None:
                raise     # an explicit --eps that aborts is a real abort
            continue      # drawn eps hit a singular/out-of-domain spot
        evaluated += 1
    if evaluated < max(1, trials // 2):
        raise ConfigError(
            f"identity {identity!r}: only {evaluated}/{trials} trials were "
            "evaluable; tighten the eps range")
    return worst


def _cmd_check(args) -> int:
    if args.identity in ("n4-poly", "d-sum"):
        n = 4
    elif args.identity == "sqrt-comp":
        n = 3
    else:
        n = args.n
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    if args.identity == "phi-eq" and n not in (3, 4):
        raise ConfigError(f"phi-eq is defined for N = 3 or 4, not N = {n}")
    worst = _check_battery(args.identity, n, args.trials, args.seed, args.eps)
    if args.format == "csv":
        _emit("identity,trials,max_residual\n"
              f"{args.identity},{args.trials},{fmt17(worst)}\n", args.out)
    else:
        _emit(json.dumps({"status": "ok", "identity": args.identity,
                          "trials": args.trials, "max_residual": worst}),
              args.out)
    return 0


def _cmd_independence(args) -> int:
    every = _at_alpha(registry, args.n, args.alpha)
    invs = [v for v in every if v.family == args.family]
    if not invs:
        fams = sorted({v.family for v in every})
        raise ConfigError(f"unknown family {args.family!r} at N={args.n}; "
                          f"known: {', '.join(fams)}")
    pts = random_starts(args.points, args.n, args.seed)
    ranks = [independence_rank(invs, y, args.eps) for y in pts]
    if args.format == "csv":
        lines = ["family,n,point,rank"]
        lines += [f"{args.family},{args.n},{k},{r}" for k, r in enumerate(ranks)]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps({"status": "ok", "family": args.family, "n": args.n,
                          "ranks": ranks}), args.out)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "map": _cmd_map,
    "drift": _cmd_drift,
    "convergence": _cmd_convergence,
    "check": _cmd_check,
    "independence": _cmd_independence,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, SingularStepError, BlowupError, ParameterError) as exc:
        status = {"status": "aborted", "error": str(exc)}
        if getattr(args, "format", "csv") == "json":
            _emit(json.dumps(status), getattr(args, "out", None))
        print(f"aborted: {exc}", file=sys.stderr)
        return 2
    except KovtopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
