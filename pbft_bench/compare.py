#!/usr/bin/env python3
"""Interleaved comparison of two checkouts on the PBFT benchmark.

Usage:
    python3 pbft_bench/compare.py --base PARENT_DIR --change CHANGE_DIR [--pairs 10]
        [--workloads a,b] [--first-seed 1] [--trace 0|1] [--markdown]

Each directory is a checkout holding BENCHMARK.json. Every run lasts the base's run_seconds.
Pair i runs every workload on both sides with seed first-seed+i, alternating which side goes
first (ABBA), because a shared host's speed can drift by tens of percent within minutes:
alternation spreads the drift over both sides instead of charging it to whichever ran later.
Passing the same directory twice compares two sets of runs of the same code, which is how
the benchmark's own bounds are checked.

Every workload gets its own rows: per metric, each side's median and quartiles, and a
verdict from the bounds in the base's BENCHMARK.json:
  regressed   the change's median is worse than the base's by more than the bound;
  unresolved  a side's spread (interquartile range over median) exceeds the bound, and not
              every change run beats every base run;
  improved    the gain rule holds: at least 10 pairs, the change wins at least 9/10 of them
              (ties count for neither), and the medians differ by more than the base's
              interquartile range;
  same        none of the above.
Per-layer metrics (--trace 1) have no bound and are reported as numbers only.
Exits 1 when any metric regressed or a run failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().split("\n")[-1])
    except (ValueError, IndexError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(metric, base, change, pairs):
    """Applies the benchmark's bound and the gain rule to one metric of one workload."""
    lower = metric["better"] == "lower"
    bound = metric.get("bound")
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    if bound is None or bmed == 0:
        return "-"
    worse = (cmed - bmed) / bmed if lower else (bmed - cmed) / bmed
    if worse > bound:
        return "regressed"
    wins = sum(1 for b, c in pairs if (c < b if lower else c > b))
    gap = abs(cmed - bmed)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap > (bq3 - bq1) and worse < 0:
        return "improved"
    spread = max((bq3 - bq1) / bmed, (cq3 - cq1) / cmed if cmed else 0)
    all_better = (max(change) < min(base)) if lower else (min(change) > max(base))
    if spread > bound and not all_better:
        return "unresolved"
    return "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args()

    bench = {"base": load_benchmark(args.base), "change": load_benchmark(args.change)}
    spec = bench["base"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    dirs = {"base": args.base, "change": args.change}

    results = {(w, side): [] for w in workloads for side in dirs}
    failures = 0
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for w in workloads:
            for side in order:
                values = run_once(dirs[side], bench[side], w, seed, seconds, args.trace)
                if values is None:
                    failures += 1
                    print("pair %d %s %s: FAILED" % (i, w, side), file=sys.stderr)
                results[(w, side)].append(values)
            print("pair %d/%d %s done" % (i + 1, args.pairs, w), file=sys.stderr)

    rows = []
    regressed = False
    for w in workloads:
        for metric in metrics:
            name = metric["name"]
            pairs = [(b[name], c[name])
                     for b, c in zip(results[(w, "base")], results[(w, "change")])
                     if b is not None and c is not None]
            if not pairs:
                continue
            base = [b for b, _ in pairs]
            change = [c for _, c in pairs]
            v = verdict(metric, base, change, pairs)
            regressed = regressed or v == "regressed"
            bq1, bmed, bq3 = quartiles(base)
            cq1, cmed, cq3 = quartiles(change)
            rows.append((w, name, metric["unit"], bmed, bq1, bq3, cmed, cq1, cq3,
                         (cmed - bmed) / bmed * 100 if bmed else 0.0,
                         metric.get("bound"), len(pairs), v))

    if args.markdown:
        print("| workload | metric | unit | base median [q1, q3] | change median [q1, q3] "
              "| change | bound | pairs | verdict |")
        print("|---|---|---|---|---|---|---|---|---|")
        for r in rows:
            print("| %s | %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.2f%% | %s | %d | %s |"
                  % (r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7], r[8], r[9],
                     "-" if r[10] is None else "%g" % r[10], r[11], r[12]))
    else:
        print("%-14s %-34s %-6s %30s %30s %9s %6s %5s %s" % (
            "workload", "metric", "unit", "base median [q1, q3]", "change median [q1, q3]",
            "change", "bound", "pairs", "verdict"))
        for r in rows:
            print("%-14s %-34s %-6s %30s %30s %+8.2f%% %6s %5d %s" % (
                r[0], r[1], r[2], "%.4g [%.4g, %.4g]" % r[3:6], "%.4g [%.4g, %.4g]" % r[6:9],
                r[9], "-" if r[10] is None else "%g" % r[10], r[11], r[12]))
    if failures:
        print("%d run(s) failed" % failures)
    sys.exit(1 if regressed or failures else 0)


if __name__ == "__main__":
    main()
