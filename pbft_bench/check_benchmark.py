#!/usr/bin/env python3
"""Validates BENCHMARK.json, and with --smoke checks that the benchmark emits what it declares.

Usage, from the repository root:
    python3 pbft_bench/check_benchmark.py [--smoke] [--file BENCHMARK.json]

Static checks: the exact key set; names made of [A-Za-z0-9_.-] (at most 64, starting with a
letter or digit) and unique; 2-8 workloads, 1-16 end-to-end and 1-128 per-layer metrics;
every metric has a unit, a direction and (end to end) a bound of at most 0.25; setup_s is
an end-to-end metric in seconds, lower is better; paths and command stay inside the
repository; run_seconds and the total run time of 4 + 22 runs per workload fit 3420 s.

--smoke runs every workload for 1 s untraced and traced, and checks that each run is
correct, fails nothing, and reports exactly the declared metrics with the declared units.
Exits 1 on the first list of problems found.
"""
import argparse
import json
import os
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
BUDGET_S = 3420


def check_static(bench, size, problems):
    if size > 64 * 1024:
        problems.append("file is larger than 64 KiB")
    if set(bench) != KEYS:
        problems.append("keys are %s, expected %s" % (sorted(bench), sorted(KEYS)))
        return
    cmd = bench["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
            all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        problems.append("command must be a list of 1-32 strings of at most 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        problems.append("command leaves the repository")
    paths = bench["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths must list 1-16 directories")
    else:
        for p in paths:
            if not PATH.match(p) or p.startswith("/") or ".." in p.split("/"):
                problems.append("bad path %r" % p)
    rs = bench["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")

    names = set()

    def name_ok(n, what):
        if not isinstance(n, str) or not NAME.match(n):
            problems.append("%s name %r does not match %s" % (what, n, NAME.pattern))
        elif n in names:
            problems.append("%s name %r is used twice" % (what, n))
        names.add(n)

    workloads = bench["workloads"]
    if not 2 <= len(workloads) <= 8:
        problems.append("need 2-8 workloads, have %d" % len(workloads))
    for w in workloads:
        if set(w) != {"name", "why"}:
            problems.append("workload %r must have exactly name and why" % w)
            continue
        name_ok(w["name"], "workload")
        if not (isinstance(w["why"], str) and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]):
            problems.append("workload %s: why must be one line of at most 200 characters"
                            % w["name"])
    for key, limit, bounded in (("end_to_end", 16, True), ("per_layer", 128, False)):
        metrics = bench[key]
        if not 1 <= len(metrics) <= limit:
            problems.append("need 1-%d %s metrics, have %d" % (limit, key, len(metrics)))
        for m in metrics:
            expected = {"name", "unit", "better"} | ({"bound"} if bounded else set())
            if set(m) != expected:
                problems.append("%s metric %r must have exactly %s" % (key, m, sorted(expected)))
                continue
            name_ok(m["name"], key)
            if not UNIT.match(str(m["unit"])):
                problems.append("metric %s: bad unit %r" % (m["name"], m["unit"]))
            if m["better"] not in ("lower", "higher"):
                problems.append("metric %s: better must be lower or higher" % m["name"])
            if bounded and not (isinstance(m["bound"], (int, float)) and 0 < m["bound"] <= 0.25):
                problems.append("metric %s: bound must be in (0, 0.25]" % m["name"])
    setup = [m for m in bench["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end must hold setup_s in s, lower is better")
    elif setup[0]["bound"] < max(m.get("bound", 0) for m in bench["end_to_end"]):
        problems.append("setup_s should carry the largest bound")
    runs = 4 + 22 * len(workloads)
    # A run, traced or not, measures run_seconds in all, plus about 4 s of set-up, warm-up,
    # drain, audit and micro-timing; two builds of at most 2 minutes each (about 45 s each on
    # a 4-vCPU host).
    estimate = runs * (rs + 4) + 2 * 120
    if estimate > BUDGET_S:
        problems.append("%d runs may take up to %d s, over the %d s budget"
                        % (runs, estimate, BUDGET_S))


def smoke(bench, root, problems):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        for w in bench["workloads"]:
            cmd = bench["command"] + ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                                      "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            where = "%s trace=%d" % (w["name"], trace)
            try:
                result = json.loads(proc.stdout.strip().split("\n")[-1])
            except (ValueError, IndexError):
                problems.append("%s: no JSON result (exit %d): %s"
                                % (where, proc.returncode, proc.stderr[-500:]))
                continue
            if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
                problems.append("%s: exit %d, correct=%s, failed=%s" % (
                    where, proc.returncode, result.get("correct"), result.get("failed")))
            got = {n: m.get("unit") for n, m in result.get("metrics", {}).items()}
            if got != declared:
                missing = sorted(set(declared) - set(got))
                extra = sorted(set(got) - set(declared))
                units = sorted(n for n in set(got) & set(declared) if got[n] != declared[n])
                problems.append("%s: missing %s, undeclared %s, unit mismatch %s"
                                % (where, missing, extra, units))
            print("%-40s ok=%s metrics=%d" % (where, not problems, len(got)), flush=True)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--file", default=os.path.join(root, "BENCHMARK.json"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    with open(args.file) as f:
        text = f.read()
    problems = []
    check_static(json.loads(text), len(text.encode()), problems)
    if args.smoke and not problems:
        smoke(json.loads(text), root, problems)
    for p in problems:
        print("PROBLEM: " + p)
    print("BENCHMARK.json: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
