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

from .core import TrajectoryRecord, fmt17
from .errors import (BlowupError, ConfigError, DomainError, KovtopError,
                     ParameterError, SingularStepError)
from .flows import (FlowSpec, _steps_for, euler_top3, generalized_euler,
                    generalized_kovalevskaya, kovalevskaya3, rk4_states)
from .invariants import (IDENTITIES, claimed_invariants, convergence_study,
                         drift_batch, drift_to_csv, drift_to_json, evaluate,
                         identity_battery, independence_rank, random_starts,
                         registry)
from .maps import get_map, MAP_NAMES

FLOW_NAMES = ("kov3", "euler3", "gen-kov", "gen-euler")
# the flows and maps whose dimension is fixed at 3
_THREE_DIMENSIONAL = ("kov3", "euler3", "euler-hk", "cosine", "kov-sqrt",
                      "kov-pullback")


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


def _parse_y0(text: str) -> list[float]:
    y0 = _parse_floats(text)
    if not all(map(math.isfinite, y0)):
        raise ConfigError(f"--y0 must be finite, got {text!r}")
    return y0


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
    sp.add_argument("--identity", required=True, choices=tuple(IDENTITIES))
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


#: the trajectory status of each stop a raw orbit can make
_STATUS = {"whole": "ok", "cap": "blowup", "non-finite": "blowup",
           "singular": "singular", "domain": "domain"}


def _cmd_simulate(args) -> int:
    y0 = _parse_y0(args.y0)
    flow = _make_flow(args.flow, args.n, args.alpha)
    if len(y0) != flow.dim:
        raise ConfigError(f"--y0 must list {flow.dim} coordinates")
    nsteps = _steps_for(args.t_end, args.dt)
    states, end, reason = rk4_states(flow, np.asarray(y0), args.dt, nsteps)
    invs = (claimed_invariants(flow, _at_alpha(registry, flow.dim, args.alpha))
            if args.with_invariants else [])
    rec = TrajectoryRecord(
        system=flow.name, times=args.dt * np.arange(end + 1), states=states,
        invariant_names=[v.name for v in invs],
        invariants=evaluate(invs, states, 0.0)[0].T if invs else None,
        status=_STATUS[reason])
    _emit(rec.to_csv() if args.format == "csv" else rec.to_json(), args.out)
    if end < nsteps:
        print(f"blowup at step {end + 1}", file=sys.stderr)
        return 2
    return 0


def _cmd_map(args) -> int:
    y0 = _parse_y0(args.y0)
    m = get_map(args.map, args.n if args.n is not None else len(y0))
    if len(y0) != m.dim:
        raise ConfigError(f"--y0 must list {m.dim} coordinates")
    if args.steps < 0:
        raise ConfigError("--steps must be >= 0")
    states, end, reason = m.orbit(np.asarray(y0), args.eps, args.steps)
    times = m.step_time(args.eps) * np.arange(end + 1)
    rec = TrajectoryRecord(system=m.name, times=times, states=states,
                           status=_STATUS[reason])
    _emit(rec.to_csv() if args.format == "csv" else rec.to_json(), args.out)
    if end < args.steps:
        print(f"{reason} stop at step {end + 1}", file=sys.stderr)
        return 2
    return 0


def _cmd_drift(args) -> int:
    y0 = None if args.y0 is None else _parse_y0(args.y0)
    dim = args.n
    if dim is None and y0 is not None:
        dim = len(y0)
    if dim is None and (args.map or args.flow) not in _THREE_DIMENSIONAL:
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


def _cmd_convergence(args) -> int:
    y0 = _parse_y0(args.y0)
    m = get_map(args.map, args.n if args.n is not None else len(y0))
    if len(y0) != m.dim:
        raise ConfigError(f"--y0 must list {m.dim} coordinates")
    eps_list = _parse_floats(args.eps_list)
    if not eps_list or not all(0 < e < math.inf for e in eps_list):
        raise ConfigError("--eps-list must be positive and finite")
    if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("--eps-list must be strictly decreasing")
    rows, slope = convergence_study(m, y0, args.total_time, eps_list,
                                    args.dt_ref)
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


def _cmd_check(args) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    worst = identity_battery(args.identity, args.n, args.trials, args.seed,
                             args.eps)
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
    if args.points < 1:
        raise ConfigError("--points must be >= 1")
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
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (DomainError, SingularStepError, BlowupError) as exc:
        status = {"status": "aborted", "error": str(exc)}
        if args.format == "json":
            _emit(json.dumps(status), args.out)
        print(f"aborted: {exc}", file=sys.stderr)
        return 2
    except KovtopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
