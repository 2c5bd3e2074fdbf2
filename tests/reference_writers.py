"""Reference writers: the plain `fmt17` join and `json.dumps` spelling of a
trajectory table and of a drift report list, one cell at a time.  The
writers in `kovtop.core` and `kovtop.invariants` must give their bytes."""
import json
import math

from kovtop.core import fmt17


def reference_csv(rec):
    # one fmt17 call per cell
    header = (["step", "t"] + [f"y_{i+1}" for i in range(rec.dim)]
              + list(rec.invariant_names))
    lines = [",".join(header)]
    for k, (t, y) in enumerate(zip(rec.times.tolist(), rec.states.tolist())):
        row = [str(k), fmt17(t)] + [fmt17(v) for v in y]
        if rec.invariants is not None:
            row += [fmt17(v) for v in rec.invariants[k].tolist()]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def reference_json(rec):
    # json.dumps of one dict per row
    rows = []
    for k, (t, y) in enumerate(zip(rec.times.tolist(), rec.states.tolist())):
        row = {"step": k, "t": t, "y": y}
        if rec.invariants is not None:
            row["invariants"] = dict(zip(rec.invariant_names,
                                         rec.invariants[k].tolist()))
        rows.append(row)
    return json.dumps({"system": rec.system, "status": rec.status,
                       "rows": rows})


def reference_drift_json(reports):
    # the json.dumps writer the templates replace
    return json.dumps({"status": "ok", "reports": [{
        "map": r.map, "invariant": r.invariant, "eps": r.eps, "steps": r.steps,
        "max_rel_drift": None if math.isnan(r.max_rel_drift) else r.max_rel_drift,
        "first_blowup_step": r.first_blowup_step} for r in reports]})


def reference_drift_csv(reports):
    # the fmt17 join the templates replace
    lines = ["map,invariant,eps,steps,max_rel_drift,first_blowup_step"]
    for r in reports:
        blow = "" if r.first_blowup_step is None else str(r.first_blowup_step)
        lines.append(",".join([r.map, r.invariant, fmt17(r.eps), str(r.steps),
                               fmt17(r.max_rel_drift), blow]))
    return "\n".join(lines) + "\n"
