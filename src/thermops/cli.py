"""Command-line front end.

Four subcommands: `verify` builds a named channel and certifies its defining
properties, `cone` samples/exports population cones, `merge` evaluates the
coherence-merging bounds, `decouple` runs the correlation-erasure witness.
All take --q, --format and --out; `verify` adds --truncation and --tol,
`cone` --truncation and --seed.  No subcommand takes a flag it ignores, nor
a `verify` channel or `merge` form another's (`VERIFY_FLAGS`, `MERGE_FLAGS`).

Exit codes: 0 success, 1 verification failure, 2 usage error, including a
non-finite or out-of-range flag value and an --out path that cannot be
written.  JSON output is canonical ({schema, command, config, results},
sorted keys) and never holds NaN or Infinity; CSV is a flattened projection
for plotting.  All randomness (`cone` alone draws any) is Philox-seeded
from --seed, default 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .bounds import (
    decoupling_witness,
    merge_down_bound,
    merge_up_bound,
    overlap_merge_bounds,
    saturation_check,
)
from .channels import (
    BathSpec,
    cptp_deviation,
    exto_optimal_channel,
    permutation_blocks,
    qubit_optimal_sto,
    simultaneous_beta_swap_kraus,
    sto_channel,
    transition_matrix,
    verify_covariant,
    verify_gibbs_preserving,
    CERTIFY_TOL,
)
from .core import (
    SystemSpec,
    gibbs_ladder,
    gibbs_state,
    require_count,
    require_distribution,
    require_finite,
    require_unit_interval,
)
from .cones import (
    MEMBERSHIP_TOL,
    cone_dict,
    elto_cone_sample,
    hull_margin,
    inclusion_audit,
    sto_cone_sample,
    support_directions,
    to_support,
)

SCHEMA = "thermops/5"
HULL_MARGIN_FLOOR = -1e-9  # float dust allowance for points exactly on a facet
QUBIT_TEST_STATE = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)  # input of the qubit channels, only read
# the flags each `verify` channel and each `merge` form reads
VERIFY_FLAGS = {"beta-swap": (), "optimal-qubit": ("p00",), "sim-beta-swap": ("x",), "exto-optimal": ("x",)}
MERGE_FLAGS = {"merge without --overlap": ("r10", "r32", "x"), "merge --overlap": ("a", "b")}


def _reject_unread(args, table, mode):
    """Usage error for a flag that the table gives to another mode than `mode`, if it was given."""
    for flag in (f for flags in table.values() for f in flags if f not in table[mode]):
        if getattr(args, flag) is not None:
            raise ValueError(f"{mode} does not read --{flag}")


def _four_level_test_state(r10: float, r32: float) -> np.ndarray:
    rho = np.eye(4, dtype=complex) / 4.0
    rho[1, 0] = rho[0, 1] = r10
    rho[3, 2] = rho[2, 3] = r32
    return rho


# ---------------------------------------------------------------------------
# verify


def _certified(ch, spec, gamma, rho, tol):
    sat = saturation_check(ch, rho, spec, 1, 0)
    report = {
        "cptp_dev": cptp_deviation(ch),
        "gibbs_dev": verify_gibbs_preserving(ch, gamma, tol).deviation,
        "covariance_dev": verify_covariant(ch, spec, tol).deviation,
        "bound_ratio": sat.ratio,
    }
    report["pass"] = bool(
        report["cptp_dev"] <= tol
        and report["gibbs_dev"] <= tol
        and report["covariance_dev"] <= tol
        and abs(report["bound_ratio"] - 1.0) <= tol
    )
    return report, sat


def cmd_verify(args):
    q = args.q
    n_keep = require_count(args.truncation, "--truncation", 1)
    tol = require_finite(args.tol, "--tol", low=0.0)
    _reject_unread(args, VERIFY_FLAGS, args.channel)
    x = q if args.x is None else require_unit_interval(args.x, "--x")
    p00 = 1.0 - q / 2.0 if args.p00 is None else args.p00  # default: exchanged share 1/2
    config = {"channel": args.channel, "q": q, "truncation": n_keep, "tol": tol}
    config.update((flag, {"x": x, "p00": p00}[flag]) for flag in VERIFY_FLAGS[args.channel])
    details = {}

    if args.channel == "beta-swap":
        bath = BathSpec.from_q(q, n_keep)
        spec = SystemSpec.ladder(2)
        ch = sto_channel(permutation_blocks(2, n_keep + 1, (1, 0)), spec, bath)
        rho = QUBIT_TEST_STATE
        report, _ = _certified(ch, spec, gibbs_state(spec, -np.log(q)), rho, tol)
        details["truncation_gibbs_limit"] = 3.0 * q ** (n_keep + 1) / (1.0 - q)
    elif args.channel == "optimal-qubit":
        # the ground retention is p00 = 1 - share * q; at p00 = 1 - q the
        # division may round one ulp past share 1
        p00 = require_finite(p00, "--p00", low=1.0 - q, high=1.0)
        share = min((1.0 - p00) / q, 1.0)
        bath = BathSpec.from_q(q, n_keep)
        spec = SystemSpec.ladder(2)
        ch = sto_channel(qubit_optimal_sto(share, bath), spec, bath)
        rho = QUBIT_TEST_STATE
        report, sat = _certified(ch, spec, gibbs_state(spec, -np.log(q)), rho, tol)
        g = transition_matrix(ch)
        details.update(
            p00_requested=p00,
            p00_measured=float(g[0, 0]),
            p11_measured=float(g[1, 1]),
            damping_measured=sat.achieved / abs(rho[1, 0]),
            damping_bound=sat.bound / abs(rho[1, 0]),
            p00_deviation=abs(float(g[0, 0]) - p00),
        )
        report["pass"] = bool(report["pass"] and details["p00_deviation"] <= tol)
    elif args.channel == "sim-beta-swap":
        ch = simultaneous_beta_swap_kraus(x, e2=1)
        spec = SystemSpec.four_level(1, 1)
        rho = _four_level_test_state(0.1, 0.15)
        report, sat = _certified(ch, spec, gibbs_state(spec, -np.log(x)), rho, tol)
        down = merge_down_bound(0.1, 0.15, x)
        details.update(merge_down_bound=down.bound, merge_down_achieved=sat.achieved)
    else:  # exto-optimal
        # two gap-resonant level pairs (0-2, 1-3) exchanged with weight x:
        # the merge-optimal population dynamics, here on a nondegenerate grid
        g = np.array(
            [
                [1.0 - x, 0.0, 1.0, 0.0],
                [0.0, 1.0 - x, 0.0, 1.0],
                [x, 0.0, 0.0, 0.0],
                [0.0, x, 0.0, 0.0],
            ]
        )
        spec = SystemSpec.four_level(1, 3)
        ch = exto_optimal_channel(g, spec)
        rho = _four_level_test_state(0.1, 0.15)
        report, sat = _certified(ch, spec, gibbs_state(spec, -np.log(x) / 3.0), rho, tol)
        details.update(gap_pairs=[[0, 2], [1, 3]], merge_down_achieved=sat.achieved)

    results = dict(report)
    results["details"] = details
    return config, results, 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# cone


def _parse_state(text: str) -> np.ndarray:
    try:
        vals = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValueError(f"state must be comma-separated reals: {exc}") from None
    if vals.size != 3:
        raise ValueError("state must have exactly 3 entries")
    return require_distribution(vals, "--state")


def _inclusion_summary(p, gamma, support, elto_points, sto_points):
    summary = {}
    for name, points in (("elto", elto_points), ("sto", sto_points)):
        residual, margin = inclusion_audit(p, gamma, support, points)
        summary[f"{name}_membership_max_residual"] = residual
        summary[f"{name}_support_margin"] = margin
        summary[f"{name}_subset_to"] = bool(residual <= MEMBERSHIP_TOL)
    margin = hull_margin(sto_points, elto_points)
    summary["sto_in_elto_hull_margin"] = margin
    summary["sto_subset_elto"] = bool(margin >= HULL_MARGIN_FLOOR)
    return summary


def cmd_cone(args):
    q = args.q
    truncation = require_count(args.truncation, "--truncation", 1)
    seed = require_count(args.seed, "--seed")
    p = _parse_state(args.state)
    samples = require_count(args.samples, "--samples")
    directions = require_count(args.directions, "--directions", 1)
    depth = require_count(args.depth, "--depth", 1)
    gamma = gibbs_ladder(3, q)
    config = {
        "which": args.which,
        "state": p.tolist(),
        "q": q,
        "truncation": truncation,
        "samples": samples,
        "directions": directions,
        "depth": depth,
        "seed": seed,
    }
    bath = BathSpec.from_q(q, truncation)
    everything = args.which == "all"
    results = {}
    if everything or args.which == "to":
        support = tuple((c, to_support(p, gamma, c)) for c in support_directions(directions))
        results["to"] = cone_dict(p, gamma, support=support)
    if everything or args.which == "elto":
        elto_points, tags = elto_cone_sample(p, gamma, depth, samples, seed)
        results["elto"] = cone_dict(p, gamma, points=elto_points, provenance=tags)
    if everything or args.which == "sto":
        sto_points, tags = sto_cone_sample(p, bath, bath.truncation + 2, samples, seed)
        results["sto"] = cone_dict(p, gamma, points=sto_points, provenance=tags)
    if everything:
        results["inclusion"] = _inclusion_summary(p, gamma, support, elto_points, sto_points)
    return config, results, 0


# ---------------------------------------------------------------------------
# merge / decouple


def cmd_merge(args):
    mode = "merge --overlap" if args.overlap else "merge without --overlap"
    _reject_unread(args, MERGE_FLAGS, mode)
    config = {"overlap": args.overlap, **{flag: getattr(args, flag) for flag in MERGE_FLAGS[mode]}}
    if None in config.values():
        raise ValueError(f"{mode} needs --" + ", --".join(MERGE_FLAGS[mode]))
    if args.overlap:
        config["q"] = args.q
        return config, dict(overlap_merge_bounds(args.a, args.b, args.q)), 0
    r10, r32, x = args.r10, args.r32, args.x
    down = merge_down_bound(r10, r32, x)
    up = merge_up_bound(r10, r32, x)
    out = simultaneous_beta_swap_kraus(x, e2=1).apply(_four_level_test_state(r10, r32))
    swap_down, swap_up = abs(out[1, 0]), abs(out[3, 2])
    results = {
        "down": {
            "bound": down.bound,
            "strategy": down.strategy,
            "achieved": max(r10, swap_down),
            "swap_channel_value": swap_down,
        },
        "up": {
            "bound": up.bound,
            "strategy": up.strategy,
            "achieved": max(r32, swap_up),
            "swap_channel_value": swap_up,
        },
    }
    return config, results, 0


def cmd_decouple(args):
    w = decoupling_witness(args.p, args.a, args.b, args.q)
    config = {"p": w.p, "a": w.a, "b": w.b, "q": w.q}
    results = {
        "product_coherence": w.product_coherence,
        "exto_bound": w.exto_bound,
        "verdict": "REACHABLE" if w.reachable else "NOT-REACHABLE",
        "condition_holds": w.condition_holds,
        "condition_vacuous": w.condition_vacuous,
    }
    if w.condition_vacuous:
        results["note"] = "sufficient-condition window is empty (p + q <= 1)"
    return config, results, 0


# ---------------------------------------------------------------------------
# plumbing


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _num(v) -> str:
    return repr(float(v))


def _kv_csv(doc: dict) -> str:
    rows = []
    _flatten("", doc, rows)
    return _csv(("key", "value"), ((k, _num(v) if isinstance(v, float) else v) for k, v in rows))


def _cone_csv(results: dict) -> str:
    """One row per support value or sampled point of each cone in the
    results; with several cones each kind carries the cone's name.  The
    inclusion audit of `cone all` follows as summary rows."""
    cones = [name for name in ("to", "elto", "sto") if name in results]
    rows = []
    for name in cones:
        kind = f"{name}:" if len(cones) > 1 else ""
        cone = results[name]
        for row in cone["support"]:
            rows.append([kind + "support", *map(_num, row["direction"]), _num(row["value"]), "TO-support"])
        for row in cone["points"]:
            rows.append([kind + "point", *map(_num, row["x"]), "", row["provenance"]])
    summary = results.get("inclusion", {})
    rows.extend(["summary", "", "", "", _num(summary[key]), key] for key in sorted(summary))
    return _csv(("kind", "x0", "x1", "x2", "value", "provenance"), rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="thermops", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    extra_flags = {
        "--truncation": dict(type=int, default=40, help="kept bath Fock levels minus 1"),
        "--tol": dict(type=float, default=CERTIFY_TOL, help="certificate tolerance"),
        "--seed": dict(type=int, default=0, help="Philox seed of every random draw"),
    }

    def common(p, *extra):
        p.add_argument("--q", type=float, default=0.5, help="bath Boltzmann factor in (0,1)")
        for flag in extra:
            p.add_argument(flag, **extra_flags[flag])
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the document here instead of stdout")

    pv = sub.add_parser("verify", help="build a named channel and certify it")
    pv.add_argument("channel", choices=tuple(VERIFY_FLAGS))
    pv.add_argument("--x", type=float, help="gap weight of sim-beta-swap and exto-optimal only; defaults to q")
    pv.add_argument("--p00", type=float, help="ground retention in [1 - q, 1] of optimal-qubit only; defaults to 1 - q/2 (exchanged share 1/2)")
    common(pv, "--truncation", "--tol")

    pc = sub.add_parser("cone", help="sample and export population cones")
    pc.add_argument("which", choices=("to", "elto", "sto", "all"))
    pc.add_argument("--state", default="0.8,0.16,0.04", help="qutrit populations, comma separated")
    pc.add_argument("--samples", type=int, default=500)
    pc.add_argument("--directions", type=int, default=360)
    pc.add_argument("--depth", type=int, default=6)
    common(pc, "--truncation", "--seed")

    pm = sub.add_parser("merge", help="coherence-merging bounds")
    for flag in (f for flags in MERGE_FLAGS.values() for f in flags):
        pm.add_argument(f"--{flag}", type=float)
    pm.add_argument("--overlap", action="store_true", help="overlapping-gap form: --a/--b instead of --r10/--r32/--x")
    common(pm)

    pd = sub.add_parser("decouple", help="correlation-erasure witness")
    pd.add_argument("--p", type=float, required=True)
    pd.add_argument("--a", type=float, required=True)
    pd.add_argument("--b", type=float, required=True)
    common(pd)
    return parser


COMMANDS = {"verify": cmd_verify, "cone": cmd_cone, "merge": cmd_merge, "decouple": cmd_decouple}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        require_unit_interval(args.q, "--q")
        config, results, code = COMMANDS[args.command](args)
        config["format"] = args.format
        doc = {"schema": SCHEMA, "command": args.command, "config": config, "results": results}
        # built for CSV too: allow_nan=False is what keeps NaN and Infinity
        # out of every document
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "csv":
        text = _cone_csv(results) if args.command == "cone" else _kv_csv(doc)
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
