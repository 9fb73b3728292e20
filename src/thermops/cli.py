"""Command-line front end.

Four subcommands: `verify` builds a named channel and certifies its defining
properties, `cone` samples/exports population cones, `merge` evaluates the
coherence-merging bounds, `decouple` runs the correlation-erasure witness.

Exit codes: 0 success, 1 verification failure, 2 usage error, including a
non-finite or out-of-range flag value.  JSON output is canonical ({schema,
command, config, results}, sorted keys) and never holds NaN or Infinity;
CSV is a flattened projection for plotting.  All randomness is
Philox-seeded from --seed, falling back to THERMOPS_SEED, then 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
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
    beta_swap_qubit,
    cptp_deviation,
    exto_optimal_channel,
    qubit_optimal_sto,
    simultaneous_beta_swap_kraus,
    sto_channel,
    transition_matrix,
    verify_covariant,
    verify_gibbs_preserving,
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
    ConeApprox,
    cone_dict,
    elto_cone_sample,
    hull_margin,
    inclusion_audit,
    sto_cone_sample,
    support_directions,
    to_support,
)

SCHEMA = "thermops/1"
MEMBERSHIP_TOL = 1e-8  # cone inclusion checks are LP-limited, not config-limited
HULL_MARGIN_FLOOR = -1e-9  # float dust allowance for points exactly on a facet


def _check_common(args):
    """The flags every subcommand takes, checked whether or not it uses them."""
    require_unit_interval(args.q, "--q")
    require_count(args.truncation, "--truncation", 1)
    require_finite(args.tol, "--tol", low=0.0)
    if args.seed is not None:
        require_count(args.seed, "--seed")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return require_count(int(os.environ.get("THERMOPS_SEED", "0")), "THERMOPS_SEED")


def _four_level_test_state(r10: float, r32: float) -> np.ndarray:
    rho = np.eye(4, dtype=complex) / 4.0
    rho[1, 0] = rho[0, 1] = r10
    rho[3, 2] = rho[2, 3] = r32
    return rho


# ---------------------------------------------------------------------------
# verify


def _certified(ch, spec, gamma, rho, tol, i=1, j=0):
    sat = saturation_check(ch, rho, spec, i, j)
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
    q, n_keep, tol = args.q, args.truncation, args.tol
    x = q if args.x is None else require_unit_interval(args.x, "--x")
    require_finite(args.p00, "--p00")
    config = {"channel": args.channel, "q": q, "truncation": n_keep, "tol": tol}
    details = {}

    if args.channel == "beta-swap":
        bath = BathSpec.from_q(q, n_keep)
        spec = SystemSpec.ladder(2)
        ch = sto_channel(beta_swap_qubit(bath), spec, bath)
        rho = _qubit_test_state()
        report, _ = _certified(ch, spec, gibbs_state(spec, -np.log(q)), rho, tol)
        details["truncation_gibbs_limit"] = 3.0 * q ** (n_keep + 1) / (1.0 - q)
    elif args.channel == "optimal-qubit":
        config["p00"] = args.p00
        bath = BathSpec.from_q(q, n_keep)
        spec = SystemSpec.ladder(2)
        ch = sto_channel(qubit_optimal_sto(args.p00, bath), spec, bath)
        rho = _qubit_test_state()
        report, sat = _certified(ch, spec, gibbs_state(spec, -np.log(q)), rho, tol)
        g = transition_matrix(ch).G
        details.update(
            p00_requested=args.p00,
            p00_measured=float(g[0, 0]),
            p11_measured=float(g[1, 1]),
            damping_measured=sat.achieved / abs(rho[1, 0]),
            damping_bound=sat.bound / abs(rho[1, 0]),
            p00_deviation=abs(float(g[0, 0]) - args.p00),
        )
        report["pass"] = bool(report["pass"] and details["p00_deviation"] <= tol)
    elif args.channel == "sim-beta-swap":
        config["x"] = x
        ch = simultaneous_beta_swap_kraus(x, e2=1)
        spec = SystemSpec.four_level(1, 1)
        rho = _four_level_test_state(0.1, 0.15)
        report, sat = _certified(ch, spec, gibbs_state(spec, -np.log(x)), rho, tol)
        down = merge_down_bound(0.1, 0.15, x)
        details.update(merge_down_bound=down.bound, merge_down_achieved=sat.achieved)
    elif args.channel == "exto-optimal":
        config["x"] = x
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
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown channel {args.channel}")

    results = dict(report)
    results["details"] = details
    return config, results, 0 if report["pass"] else 1


def _qubit_test_state() -> np.ndarray:
    rho = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    return rho


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


def _build_to(p, gamma, directions):
    dirs = support_directions(directions)
    support = tuple((c, to_support(p, gamma, c)) for c in dirs)
    return ConeApprox(p=p, gamma=gamma, support=support, points=np.empty((0, 3)), provenance=())


def _build_elto(p, gamma, depth, samples, seed):
    points, tags = elto_cone_sample(p, gamma, depth, samples, seed)
    return ConeApprox(p=p, gamma=gamma, support=(), points=points, provenance=tuple(tags))


def _build_sto(p, bath, samples, seed):
    gamma = gibbs_ladder(3, bath.q)
    points, tags = sto_cone_sample(p, bath, bath.truncation + 2, samples, seed)
    return ConeApprox(p=p, gamma=gamma, support=(), points=points, provenance=tuple(tags))


def _inclusion_summary(to_cone, elto_cone, sto_cone):
    summary = {}
    for name, cone in (("elto", elto_cone), ("sto", sto_cone)):
        residual, margin = inclusion_audit(to_cone, cone.points)
        summary[f"{name}_membership_max_residual"] = residual
        summary[f"{name}_support_margin"] = margin
        summary[f"{name}_subset_to"] = bool(residual <= MEMBERSHIP_TOL)
    margin = hull_margin(sto_cone.points, elto_cone.points)
    summary["sto_in_elto_hull_margin"] = margin
    summary["sto_subset_elto"] = bool(margin >= HULL_MARGIN_FLOOR)
    return summary


def cmd_cone(args):
    q = args.q
    p = _parse_state(args.state)
    samples = require_count(args.samples, "--samples")
    directions = require_count(args.directions, "--directions", 1)
    depth = require_count(args.depth, "--depth", 1)
    gamma = gibbs_ladder(3, q)
    seed = _resolve_seed(args)
    config = {
        "which": args.which,
        "state": list(p),
        "q": q,
        "truncation": args.truncation,
        "samples": samples,
        "directions": directions,
        "depth": depth,
        "seed": seed,
    }
    bath = BathSpec.from_q(q, args.truncation)
    if args.which == "to":
        return config, {"to": cone_dict(_build_to(p, gamma, directions))}, 0
    if args.which == "elto":
        return config, {"elto": cone_dict(_build_elto(p, gamma, depth, samples, seed))}, 0
    if args.which == "sto":
        return config, {"sto": cone_dict(_build_sto(p, bath, samples, seed))}, 0
    # all: the three cones plus the sampled inclusion audit
    to_cone = _build_to(p, gamma, directions)
    elto_cone = _build_elto(p, gamma, depth, samples, seed)
    sto_cone = _build_sto(p, bath, samples, seed)
    results = {
        "to": cone_dict(to_cone),
        "elto": cone_dict(elto_cone),
        "sto": cone_dict(sto_cone),
        "inclusion": _inclusion_summary(to_cone, elto_cone, sto_cone),
    }
    return config, results, 0


# ---------------------------------------------------------------------------
# merge / decouple


def cmd_merge(args):
    if args.overlap:
        if args.a is None or args.b is None:
            raise ValueError("--overlap needs --a and --b")
        config = {"overlap": True, "a": args.a, "b": args.b, "q": args.q}
        return config, dict(overlap_merge_bounds(args.a, args.b, args.q)), 0
    if args.r10 is None or args.r32 is None or args.x is None:
        raise ValueError("merge needs --r10, --r32 and --x (or --overlap with --a/--b)")
    r10, r32, x = args.r10, args.r32, args.x
    down = merge_down_bound(r10, r32, x)
    up = merge_up_bound(r10, r32, x)
    # measure the simultaneous swap on a matching aligned-phase state; scale
    # the coherences into the positive cone of the test populations first
    # (mode action is linear, so the measurement unscales exactly)
    top = max(r10, r32)
    s = 1.0 if top <= 0.2 else 0.2 / top
    out = simultaneous_beta_swap_kraus(x, e2=1).apply(_four_level_test_state(s * r10, s * r32))
    swap_down, swap_up = abs(out[1, 0]) / s, abs(out[3, 2]) / s
    config = {"overlap": False, "r10": r10, "r32": r32, "x": x}
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

    def common(p):
        p.add_argument("--q", type=float, default=0.5, help="bath Boltzmann factor in (0,1)")
        p.add_argument("--truncation", type=int, default=40, help="kept bath Fock levels minus 1")
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=None, help="falls back to THERMOPS_SEED, then 0")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the document here instead of stdout")

    pv = sub.add_parser("verify", help="build a named channel and certify it")
    pv.add_argument("channel", choices=("beta-swap", "optimal-qubit", "sim-beta-swap", "exto-optimal"))
    pv.add_argument("--x", type=float, default=None, help="four-level gap weight; defaults to q")
    pv.add_argument("--p00", type=float, default=0.75, help="ground retention for optimal-qubit")
    common(pv)

    pc = sub.add_parser("cone", help="sample and export population cones")
    pc.add_argument("which", choices=("to", "elto", "sto", "all"))
    pc.add_argument("--state", default="0.8,0.16,0.04", help="qutrit populations, comma separated")
    pc.add_argument("--samples", type=int, default=500)
    pc.add_argument("--directions", type=int, default=360)
    pc.add_argument("--depth", type=int, default=6)
    common(pc)

    pm = sub.add_parser("merge", help="coherence-merging bounds")
    pm.add_argument("--r10", type=float, default=None)
    pm.add_argument("--r32", type=float, default=None)
    pm.add_argument("--x", type=float, default=None)
    pm.add_argument("--overlap", action="store_true", help="overlapping-gap variant (needs --a/--b)")
    pm.add_argument("--a", type=float, default=None)
    pm.add_argument("--b", type=float, default=None)
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
        _check_common(args)
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
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
