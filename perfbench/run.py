"""thermops benchmark: end-to-end metrics per workload, or a traced run for
per-layer metrics.

    python3 perfbench/run.py --workload cone-all --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Closed loop with one caller: each iteration starts when the previous one
has finished.  One untimed, checked iteration warms up first.  Then
iterations run until --seconds have passed; every output is checked.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
  setup_s      median wall time of a fresh interpreter importing thermops
               and thermops.cli, spawned once after each timed iteration so
               that it samples the same periods of host load as the work
  items_per_s  items completed over the timed iterations' total wall time
  peak_rss_mb  peak resident memory of the process running the workload
--trace 1 alternates untraced and traced iterations on the same inputs and
reports the per-layer metrics: medians over traced iterations of calls and
self times, trace coverage and overhead (traced minus untraced wall time).
Traced outputs must equal the untraced ones byte for byte, and the top-level
spans must cover at least MIN_COVERAGE of the in-process wall time.

The error rate is `failed / attempted` over all output checks; a failed
check is printed, makes `correct` false and the exit code 1.  The last
line of stdout is the JSON result.  Spans and a result record with the
environment go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans
from workloads import OUT, ROOT, SRC, WORKLOADS, child_env

MIN_COVERAGE = 0.95
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_at_start": os.getloadavg(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
    }


def time_setup() -> float:
    """Wall time of one fresh interpreter importing thermops and its CLI."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import thermops, thermops.cli"], env=child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = []

    def add(self, iteration, results: dict):
        for label, ok in results.items():
            self.attempted += 1
            if not ok:
                self.failed.append(f"iteration {iteration}: {label}")


def measure(workload, seconds: float, trace: bool):
    """Run the closed loop; (per-iteration records, Checks, traced spans).

    Without trace, each iteration is followed by one timed set-up spawn,
    inside the same deadline.  With trace, each iteration runs untraced and
    traced on the same inputs, alternating which goes first."""
    checks = Checks()
    checks.add(0, workload.check(workload.run(0)))
    tracer = spans.Tracer() if trace else None
    records, traced_spans = [], []

    def timed(i, traced):
        if traced:
            tracer.reset()
            if workload.in_process:
                tracer.install()
        try:
            start = time.perf_counter()
            output = workload.run(i, tracer if traced else None)
            return output, time.perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()

    deadline = time.perf_counter() + seconds
    i = 1
    while True:
        sides = (False, True) if trace else (False,)
        if i % 2 == 0:
            sides = sides[::-1]
        runs = {traced: timed(i, traced) for traced in sides}
        output, wall = runs[False]
        record = {"iteration": i, "wall_s": wall}
        checks.add(i, workload.check(output))
        if trace:
            traced_output, traced_wall = runs[True]
            layers = spans.summarize(tracer.spans, tracer.counters, tracer.wall_s or traced_wall)
            layers["trace.overhead_s"] = traced_wall - wall
            results = {
                "traced output identical": workload.digest(traced_output) == workload.digest(output),
                f"trace coverage >= {MIN_COVERAGE}": layers["trace.coverage"] >= MIN_COVERAGE,
            }
            if hasattr(workload, "expected_calls"):
                for key, want in workload.expected_calls().items():
                    got = layers.get(key, 0)
                    results[f"{key} == {want} (got {got:.0f})"] = got == want
            checks.add(i, results)
            record["layers"] = layers
            traced_spans.append((i, list(tracer.spans)))
        else:
            record["setup_s"] = time_setup()
        records.append(record)
        i += 1
        if time.perf_counter() >= deadline:
            return records, checks, traced_spans


def result_metrics(spec, workload, records, trace):
    if trace:
        return {
            m["name"]: {
                "value": statistics.median(r["layers"].get(m["name"], 0.0) for r in records),
                "unit": m["unit"],
            }
            for m in spec["per_layer"]
        }
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "items_per_s": workload.items * len(records) / sum(r["wall_s"] for r in records),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def summary_line(metrics, checks) -> str:
    """Every metric with its value and unit, then the error rate."""
    shown = "; ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    failed = len(checks.failed)
    return f"{shown}; error_rate {failed / checks.attempted:.6g} ({failed}/{checks.attempted})"


def run_one(args, spec) -> int:
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    workload = WORKLOADS[args.workload](args.seed)
    started = time.perf_counter()
    records, checks, traced_spans = measure(workload, args.seconds, bool(args.trace))
    elapsed = time.perf_counter() - started
    metrics = result_metrics(spec, workload, records, args.trace)
    failed = len(checks.failed)
    result = {"correct": failed == 0, "attempted": checks.attempted, "failed": failed, "metrics": metrics}
    for label in checks.failed:
        print(f"check failed: {label}", file=sys.stderr)
    if traced_spans:
        with open(OUT / f"spans-{args.workload}.jsonl", "w") as fh:
            for iteration, rows in traced_spans:
                spans.dump(fh, rows, iteration=iteration)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "iterations": records, "failed_checks": checks.failed, "result": result}
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {len(records)} iterations in {elapsed:.1f} s; "
          + summary_line(metrics, checks))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own child process, so peak RSS is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return run_one(args, spec)


if __name__ == "__main__":
    if not (SRC / "thermops" / "__init__.py").is_file():
        print(f"error: no thermops sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
