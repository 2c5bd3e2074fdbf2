"""Command-line front end: simulations, drift studies, convergence studies,
identity checks, and independence ranks, emitting CSV or JSON.

Exit codes: 0 success, 1 invalid configuration, 2 domain/singularity abort
(JSON output still written with a "status" field; CSV keeps its pinned
column schema, so aborts are reported on stderr).
"""
from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import re
import stat
import sys

import numpy as np

from .core import TrajectoryRecord, fmt17
from .errors import (BlowupError, ConfigError, DomainError, KovtopError,
                     SingularStepError)
from .flows import FLOW_NAMES, _steps_for, get_flow, rk4_states
from .invariants import (IDENTITIES, claimed_invariants, convergence_study,
                         drift_batch, drift_to_csv, drift_to_json, evaluate,
                         identity_battery, independence_rank, random_starts,
                         registry)
from .maps import get_map, MAP_NAMES


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


def _parse_floats(text: str, flag: str) -> list[float]:
    """The comma-separated floats of option `flag`; an empty entry (as in
    `1,,2`, a trailing comma or an empty list) or one that is not a number
    is a ConfigError naming `flag`."""
    toks = text.split(",")
    if any(tok.strip() == "" for tok in toks):
        raise ConfigError(f"{flag} has an empty entry: {text!r}")
    out = []
    for tok in toks:
        try:
            out.append(float(tok))
        except ValueError:
            raise ConfigError(f"{flag} has an entry that is not a number: "
                              f"{tok!r} in {text!r}") from None
    return out


def _parse_y0(text: str) -> list[float]:
    y0 = _parse_floats(text, "--y0")
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


def _seed(text: str) -> int:
    # numpy seeds its generators from nonnegative integers only
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `kovtop` argument parser, built on the first call and shared for
    the life of the process, so that repeated `main` calls pay for it once.
    Do not mutate it.  argparse keeps no per-parse state on a parser, so
    the parses that share it are independent."""
    p = _Parser(prog="kovtop", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    # --seed only on the commands that draw: drift's starts, check's trials
    # and independence's points
    def common(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("simulate", help="integrate a flow with RK4")
    sp.add_argument("--flow", required=True, choices=FLOW_NAMES)
    sp.add_argument("--n", type=int, default=None)
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
    sp.add_argument("--starts", type=int, default=None)
    sp.add_argument("--eps", type=_finite_float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--invariant", default=None,
                    help="restrict to one invariant name")
    common(sp)
    sp.add_argument("--seed", type=_seed, default=None)

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
    sp.add_argument("--seed", type=_seed, default=0)

    sp = sub.add_parser("independence", help="functional-independence rank")
    sp.add_argument("--family", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=_finite_float, default=2.0)
    sp.add_argument("--points", type=int, default=10)
    sp.add_argument("--eps", type=_finite_float, default=0.01)
    common(sp)
    sp.add_argument("--seed", type=_seed, default=0)

    return p


def _unwritable(out_path, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write --out {out_path!r}: "
                       f"{exc.strerror or exc}")


def _check_out(out_path):
    """The ConfigError `_emit` would raise, before any work, for an `--out`
    whose directory does not exist (or is not a directory), or that names a
    directory (or ends in a separator, as open() reads it); nothing is
    created or truncated.  Any other write error is reported by `_emit`
    when it writes."""
    try:
        parent = os.stat(os.path.dirname(out_path.rstrip(os.sep)) or ".")
        if not stat.S_ISDIR(parent.st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if out_path.endswith(os.sep) or os.path.isdir(out_path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as exc:
        raise _unwritable(out_path, exc) from None


def _emit(text: str, out_path):
    """Write `text` to stdout, or to the file `out_path`; a file that cannot
    be written is a ConfigError naming it."""
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _unwritable(out_path, exc) from None


def _target(args):
    """(target, y0): the map or flow the arguments name, and --y0 parsed, or
    None without it.  Its dimension is --n, else the length of --y0, else
    the lookup's own rule (`maps.get_map`, `flows.get_flow`)."""
    y0 = None if args.y0 is None else _parse_y0(args.y0)
    dim = args.n
    if dim is None and y0 is not None:
        dim = len(y0)
    if getattr(args, "map", None) is not None:
        target = get_map(args.map, dim)
    else:
        target = get_flow(args.flow, dim, args.alpha)
    if y0 is not None and len(y0) != target.dim:
        raise ConfigError(f"--y0 must list {target.dim} coordinates")
    return target, y0


def _claimed(args, target):
    """The registered invariants claimed for `target`.  --alpha reaches
    gen-kov only, as in `flows.get_flow`: every other target is claimed at
    the default alpha."""
    alpha = args.alpha if getattr(args, "flow", None) == "gen-kov" else 2.0
    return claimed_invariants(target, registry(target.dim, alpha))


#: the trajectory status of each stop a raw orbit can make
_STATUS = {"whole": "ok", "cap": "blowup", "non-finite": "blowup",
           "singular": "singular", "domain": "domain"}


def _write_orbit(args, target, orbit, dt: float, steps: int, invs=()) -> int:
    """Write the orbit (states, last step, reason) of `target` with time step
    dt and the columns of `invs`; an orbit that ended before `steps` exits 2
    with "<reason> stop at step k" on stderr."""
    states, end, reason = orbit
    rec = TrajectoryRecord(
        system=target.name, times=dt * np.arange(end + 1), states=states,
        invariant_names=[v.name for v in invs],
        invariants=evaluate(invs, states, 0.0)[0].T if invs else None,
        status=_STATUS[reason])
    _emit(rec.to_csv() if args.format == "csv" else rec.to_json(), args.out)
    if end < steps:
        print(f"{reason} stop at step {end + 1}", file=sys.stderr)
        return 2
    return 0


def _cmd_simulate(args) -> int:
    flow, y0 = _target(args)
    nsteps = _steps_for(args.t_end, args.dt)
    orbit = rk4_states(flow, np.asarray(y0), args.dt, nsteps)
    invs = _claimed(args, flow) if args.with_invariants else []
    return _write_orbit(args, flow, orbit, args.dt, nsteps, invs)


def _cmd_map(args) -> int:
    m, y0 = _target(args)
    if args.steps < 0:
        raise ConfigError("--steps must be >= 0")
    orbit = m.orbit(np.asarray(y0), args.eps, args.steps)
    return _write_orbit(args, m, orbit, m.step_time(args.eps), args.steps)


def _cmd_drift(args) -> int:
    target, y0 = _target(args)
    invs = _claimed(args, target)
    if args.invariant is not None:
        invs = [v for v in invs if v.name == args.invariant]
        if not invs:
            raise ConfigError(f"no registered invariant {args.invariant!r} "
                              f"claimed for {target.name}")
    # --starts and --seed draw the starts, so they have no meaning with --y0
    # and their defaults (20 starts, seed 0) apply only when starts are drawn
    if y0 is not None:
        drawn = [flag for flag, v in (("--starts", args.starts),
                                      ("--seed", args.seed)) if v is not None]
        if drawn:
            raise ConfigError(f"{' and '.join(drawn)} cannot be used with "
                              f"--y0, which gives the one start")
        starts = [y0]
    else:
        n = 20 if args.starts is None else args.starts
        if n < 1:
            raise ConfigError("--starts must be >= 1")
        starts = random_starts(n, target.dim,
                               0 if args.seed is None else args.seed)
    reports = drift_batch(target, invs, starts, args.eps, args.steps)
    _emit(drift_to_csv(reports) if args.format == "csv"
          else drift_to_json(reports), args.out)
    return 0


def _cmd_convergence(args) -> int:
    m, y0 = _target(args)
    eps_list = _parse_floats(args.eps_list, "--eps-list")
    if not all(0 < e < math.inf for e in eps_list):
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
    # --alpha parametrizes the flow-power family alone; every other family
    # is looked up at the default alpha
    flow_power = args.family.split("(")[0] == "flow-power"
    every = registry(args.n, args.alpha if flow_power else 2.0)
    invs = [v for v in every if v.family == args.family]
    if not invs:
        fams = sorted({v.family for v in every})
        raise ConfigError(f"unknown family {args.family!r} at N={args.n}; "
                          f"known: {', '.join(fams)}")
    if args.points < 1:
        raise ConfigError("--points must be >= 1")
    pts = random_starts(args.points, args.n, args.seed)
    ranks = independence_rank(invs, pts, args.eps)
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


#: the actions a plain reading takes: an option with one value, and a flag
_PLAIN = (argparse._StoreAction, argparse._StoreTrueAction)


def _plain_args(command, argv):
    """The namespace `command`, the parser of command argv[0], gives the
    options argv[1:] when they are a plain line: each a full option string
    of a store or store-true action, none twice, a store option followed by
    one value that does not start with '-' and passes its type and choices,
    every required option and required group given, no group twice.  Read
    straight from the parser's option table, with the others' defaults.
    None for any other line."""
    table = command._option_string_actions
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        action = table.get(token)
        if type(action) not in _PLAIN or action in given:
            return None
        if type(action) is argparse._StoreTrueAction:
            given[action] = action.const
            continue
        text = next(tokens, "-")        # a missing value reads as a dash
        if text.startswith("-"):
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action] = value
    if any(a.required and a not in given for a in command._actions):
        return None
    for group in command._mutually_exclusive_groups:
        present = [a for a in group._group_actions if a in given]
        if len(present) > 1 or (group.required and not present):
            return None
    return argparse.Namespace(command=argv[0], **{
        a.dest: given.get(a, a.default) for a in command._actions
        if a.default is not argparse.SUPPRESS})


def _parse_args(argv):
    """The namespace of argv.  A command's options are read by
    `_plain_args` from that command's parser of `build_parser` when they
    are a plain line, with no argparse scan; any other line of a command
    (-h, an abbreviation, `--opt=value`, a negative or dash value, a repeat,
    a stray token, any error) is scanned once by that command's parser,
    into a namespace that already names the command.  Any other argv (none,
    an unknown command, a top-level -h, an option before the command) goes
    to the whole parser, which ends it with its usual error or help."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    commands = next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = _plain_args(command, argv)
    if args is None:
        args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return args


def main(argv=None) -> int:
    """Run the `kovtop` command line argv (default sys.argv[1:]) and return
    its exit code: 0 success, 1 invalid configuration (a bad option, or an
    `--out` that cannot be written; one whose directory is missing, or that
    names a directory, before any work), 2 a domain or singularity abort.  A
    plain command line is read from its command parser's option table with
    no argparse scan, and any other is scanned once by the command's own
    parser (`_parse_args`): the same namespace and errors as
    `build_parser().parse_args(argv)`."""
    try:
        args = _parse_args(argv)
        if args.out is not None:
            _check_out(args.out)
        try:
            return _COMMANDS[args.command](args)
        except (DomainError, SingularStepError, BlowupError) as exc:
            if args.format == "json":
                _emit(json.dumps({"status": "aborted", "error": str(exc)}),
                      args.out)
            print(f"aborted: {exc}", file=sys.stderr)
            return 2
    except KovtopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
