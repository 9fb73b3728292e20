"""Fast self-check of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload at tiny sizes, untraced and traced, through the same
measurement code as run.py and checks that:
  - every metric in BENCHMARK.json is reported, with its unit;
  - every output check passes and traced outputs equal untraced ones;
  - the call counts a traced cone-all must see equal the pinned seed-7
    counts at the default sizes;
  - a corrupted output of each workload raises the error rate above 0.
Exits 0 when all hold, 1 otherwise.
"""

import json
import math
import sys

import run
import workloads

sys.path.insert(0, str(workloads.SRC))

# the counts a traced `cone all --seed 7` makes at the default sizes
PINNED_SEED7_CALLS = {
    "channels.haar_stack.calls": 7181,
    "channels.random_blocks.calls": 167,
    "channels.BlockUnitary.calls": 506,
    "channels.sto_population_matrix.calls": 506,
    "cones.to_membership_residual.calls": 2099,
    "cones.to_support.calls": 360,
}


def tiny(name, seed):
    if name == "cone-all":
        return workloads.ConeAll(seed, samples=10, directions=12, depth=2)
    if name == "cone-sweep":
        return workloads.ConeSweep(seed, elto_random=10, sto_random=10)
    return workloads.Certify(seed, sizes=((2, 10), (3, 10)), compose_truncation=10)


def corrupt(name, output):
    """Break one value the checks look at."""
    if name == "cone-all":
        code, data = output
        return code, data.replace(b'"sto_subset_elto": true', b'"sto_subset_elto": NaN')
    if name == "cone-sweep":
        elto_pts, sto_pts, residuals, margin = output
        return elto_pts, sto_pts, residuals + 1.0, margin
    reports, verified = output
    n, cptp, gibbs, cov, ratio = reports[0]
    return [(n, cptp, gibbs, 1.0, ratio), *reports[1:]], verified


def main() -> int:
    with open(workloads.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads.OUT.mkdir(exist_ok=True)
    problems = []
    if workloads.ConeAll(7).expected_calls() != PINNED_SEED7_CALLS:
        problems.append("cone-all expected call counts differ from the pinned seed-7 counts")
    for name in workloads.WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            w = tiny(name, seed=7)
            records, checks, _ = run.measure(w, 0, bool(trace))
            metrics = run.result_metrics(spec, w, records, trace)
            print(f"{name} trace {trace}: {run.summary_line(metrics, checks)}")
            problems += [f"{name}: {label}" for label in checks.failed]
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{name} trace {trace}: metric {m['name']} missing or malformed")
        w = tiny(name, seed=7)
        checks = run.Checks()
        checks.add(1, w.check(corrupt(name, w.run(1))))
        error_rate = len(checks.failed) / checks.attempted
        print(f"{name} corrupted: error_rate {error_rate:.3g} ({len(checks.failed)}/{checks.attempted})")
        if error_rate <= 0:
            problems.append(f"{name}: corrupted output passed every check")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
