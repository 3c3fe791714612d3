#!/usr/bin/env python3
"""End-to-end benchmark of the lotterybus simulator and the lbd daemon.

Builds bench/e2e (lbbench, which runs one workload, and lbd) from source
under .bench_build/e2e, runs workloads through lbbench, checks the answers,
and reports the metrics named in BENCHMARK.json.  See bench/e2e/README.md.

  python3 bench/e2e/run.py --workload lbd-hot --seed 3 --seconds 10 --trace 0
      one workload; the last stdout line is the result object
      {"correct", "attempted", "failed", "metrics"}
  python3 bench/e2e/run.py [--seed N] [--traced] [--smoke]
      every workload; prints "workload metric value unit" lines and writes
      the result document under build/e2e/
  python3 bench/e2e/run.py --repeat K [--seed N]
      K runs per workload with seeds N..N+K-1; prints each metric's median
      and spreads and fails when a spread exceeds its bound

Exits non-zero when any run fails its correctness checks.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
WORK = ROOT / ".bench_build" / "work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGESTS = HERE / "digests.json"
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE_SECONDS = 0.5
# A run may take this long before it is stopped (the budget is 180 s).
RUN_TIMEOUT_S = 170
# Traced runs must show each workload exercising the layer it was chosen
# for; these are exact counts, so the limits do not depend on the host.
EXPECTATIONS = {
    "bus-saturated": [("sim.skip_frac", "<=", 0.05)],
    "bus-idle": [("sim.skip_frac", ">=", 0.6)],
    "lbd-hot": [("service.cache.hit_ratio", ">=", 0.99)],
}
# Reconciliation slack of the traced runs: in-process layer times against
# the untraced wall time, and lbd's unspanned server time against the
# client's round trip.
RECONCILE_SLACK = {"bus-saturated": 0.05, "bus-idle": 0.05, "mesh": 0.05,
                   "lbd-hot": 0.10, "lbd-cold": 0.10}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds lbbench and lbd; returns the lbbench path."""
    for needed in ("src/CMakeLists.txt", "src/service/scenario.hpp",
                   "examples/lbd.cpp"):
        if not (ROOT / needed).is_file():
            sys.exit(f"run.py: {needed} is missing; run from a full checkout")
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "lbbench"], check=True, stdout=sys.stderr)
    return BUILD / "lbbench"


def stop_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_lbbench(lbbench, workload, seed, seconds, trace, smoke):
    """One lbbench run in its own process group, so a run that overstays
    its budget is stopped together with the lbd it spawned."""
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(lbbench), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(WORK)] + (["--smoke"] if smoke else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        sys.exit(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s")
    stop_group(proc.pid)  # an lbd left behind by a crashed lbbench
    if proc.returncode != 0:
        sys.exit(f"run.py: lbbench failed on {workload} "
                 f"(exit {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1])


def pinned_digest(workload, smoke):
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text())
    return table.get("smoke" if smoke else "full", {}).get(workload)


def check(doc, seed, trace, smoke):
    """Completes and validates one run's metrics; returns (metrics, problems).

    Every metric BENCHMARK.json names for the mode is reported: per-layer
    metrics a workload has no layer for read 0.
    """
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    problems = list(doc["errors"])
    metrics = {}
    for name, value in doc["metrics"].items():
        if units.get(name) != value["unit"]:
            problems.append(f"metric {name} ({value['unit']}) is not listed "
                            "in BENCHMARK.json")
        elif not math.isfinite(value["value"]):
            problems.append(f"metric {name} is not finite")
        metrics[name] = value
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                problems.append(f"end-to-end metric {name} missing")
            metrics[name] = {"value": 0.0, "unit": unit}
    if seed == 1:
        pinned = pinned_digest(doc["workload"], smoke)
        if pinned is not None and pinned != doc["digest"]:
            problems.append(f"digest {doc['digest']} != pinned {pinned}")
    if trace:
        for name, op, limit in EXPECTATIONS.get(doc["workload"], []):
            value = metrics[name]["value"]
            if not (value <= limit if op == "<=" else value >= limit):
                problems.append(f"{name} = {value:.4g}, expected {op} {limit}")
    if doc["failed"] > 0 and not problems:
        problems.append(f"{doc['failed']} operations failed")
    return metrics, problems


def result_line(doc, metrics, problems):
    return json.dumps({"correct": not problems and doc["failed"] == 0,
                       "attempted": doc["attempted"],
                       "failed": doc["failed"],
                       "metrics": metrics})


def run_all(lbbench, args):
    """run.sh: every selected workload once; a line per metric."""
    results, failed = {}, False
    for workload in args.workload:
        doc = run_lbbench(lbbench, workload, args.seed, args.seconds,
                          args.trace, args.smoke)
        metrics, problems = check(doc, args.seed, args.trace, args.smoke)
        for name, value in metrics.items():
            print(f"{workload} {name} {value['value']:.6g} {value['unit']}")
        print(f"{workload} digest {doc['digest']} "
              f"({doc['digest_results']} results, seed {args.seed})")
        if args.trace:
            gap = metrics["bench.reconcile_gap_frac"]["value"]
            slack = RECONCILE_SLACK[workload]
            print(f"{workload} reconcile {'ok' if gap <= slack else 'OVER'} "
                  f"gap {gap:.3f} slack {slack}")
        for problem in problems:
            print(f"{workload} FAILED {problem}")
        failed = failed or bool(problems)
        results[workload] = {"run": doc, "problems": problems}
    out_dir = ROOT / "build" / "e2e"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"result-seed{args.seed}{'-traced' if args.trace else ''}" \
           f"{'-smoke' if args.smoke else ''}.json"
    (out_dir / name).write_text(json.dumps(results, indent=1) + "\n")
    log(f"run.py: wrote {out_dir / name}")
    return 1 if failed else 0


def spread(values):
    """(median, IQR / median, max / min - 1) as the acceptance check
    computes them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0, \
        max(values) / min(values) - 1 if min(values) else math.inf


def repeat(lbbench, args):
    """repeat.sh: K seeds per workload, then each metric's spread."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in args.workload}
    failed = False
    for k in range(args.repeat):
        for workload in args.workload:
            doc = run_lbbench(lbbench, workload, args.seed + k, args.seconds,
                              0, args.smoke)
            metrics, problems = check(doc, args.seed + k, 0, args.smoke)
            for problem in problems:
                print(f"{workload} seed {args.seed + k} FAILED {problem}")
            failed = failed or bool(problems)
            for name in bounds:
                values[workload][name].append(metrics[name]["value"])
    report = {}
    print("workload metric median iqr_share maxmin_share bound")
    for workload in args.workload:
        for name, bound in bounds.items():
            med, iqr, maxmin = spread(values[workload][name])
            # setup_s is held to its bound on the median shift only.
            over = iqr > bound and name != "setup_s"
            failed = failed or over
            print(f"{workload} {name} {med:.6g} {iqr:.4f} {maxmin:.4f} "
                  f"{bound}{' OVER' if over else ''}")
            report.setdefault(workload, {})[name] = {
                "values": values[workload][name], "median": med,
                "iqr_share": iqr, "maxmin_share": maxmin, "bound": bound}
    out_dir = ROOT / "build" / "e2e"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"repeat-seed{args.seed}-k{args.repeat}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    log(f"run.py: wrote {path}")
    return 1 if failed else 0


def pin_digests(lbbench):
    """Records seed-1 digests of every workload at both sizes."""
    table = {}
    for smoke in (False, True):
        for workload in WORKLOADS:
            doc = run_lbbench(lbbench, workload, 1,
                              SMOKE_SECONDS if smoke else 1, 0, smoke)
            if doc["failed"]:
                sys.exit(f"run.py: {workload} failed; digests not pinned")
            table.setdefault("smoke" if smoke else "full", {})[workload] = \
                doc["digest"]
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    log(f"run.py: wrote {DIGESTS}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured window of one run (default: "
                             "BENCHMARK.json run_seconds, or 0.5 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics")
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the ctest-sized run)")
    parser.add_argument("--repeat", type=int, metavar="K",
                        help="K runs per workload, then the spread report")
    parser.add_argument("--pin-digests", action="store_true",
                        help="rewrite digests.json from seed-1 runs")
    parser.add_argument("--lbbench", type=Path,
                        help="use this lbbench binary instead of building")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else SPEC["run_seconds"]
    lbbench = args.lbbench or build()

    if args.pin_digests:
        return pin_digests(lbbench)
    if args.repeat:
        args.workload = args.workload or WORKLOADS
        return repeat(lbbench, args)
    if args.workload and len(args.workload) == 1:
        doc = run_lbbench(lbbench, args.workload[0], args.seed, args.seconds,
                          args.trace, args.smoke)
        metrics, problems = check(doc, args.seed, args.trace, args.smoke)
        for problem in problems:
            log(f"run.py: {args.workload[0]}: {problem}")
        print(result_line(doc, metrics, problems), flush=True)
        return 1 if problems else 0
    args.workload = args.workload or WORKLOADS
    return run_all(lbbench, args)


if __name__ == "__main__":
    sys.exit(main())
