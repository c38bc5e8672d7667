#!/usr/bin/env python3
"""Builds and runs the PBFT benchmark for one workload.

Usage, from the repository root:
    python3 pbft_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures the repository's own CMake project through pbft_bench/CMakeLists.txt
and builds its `bft` library and the benchmark under $CARGO_TARGET_DIR (default .bench_build,
relative to the repository root); later runs only rebuild what changed. Build output goes to stderr. The benchmark's report goes to stdout and
its last line is one JSON object: {"correct", "attempted", "failed", "metrics"}. A traced run
(--trace 1) also writes Chrome trace-event spans to <build dir>/spans/<workload>.trace.json.

Exits non-zero without printing a result when the repository around pbft_bench/ is missing,
the build fails, or the benchmark does not produce one.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("write_closed", "mixed_open", "bulk_inproc", "primary_crash")


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(build_dir):
    if not (os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.exists(os.path.join(ROOT, "src", "runtime", "rt_cluster.h"))):
        sys.exit("run.py: the repository (CMakeLists.txt and src/) is not next to pbft_bench/")
    # The compiler's temporary files stay in the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "bench_pbft"],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, "bench_pbft")


def run(binary, args, spans):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans:
        cmd += ["--spans", spans]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    # Stop the benchmark with us: a terminated run.py must not leave a cluster running.
    signal.signal(signal.SIGTERM, lambda *_: child.terminate())
    try:
        out, _ = child.communicate(timeout=170)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write(lines[-1] + "\n")
        sys.exit("run.py: the benchmark printed no result (exit %d)" % child.returncode)
    sys.stdout.write(lines[-1] + "\n")
    sys.stdout.flush()
    return child.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    base = build_base()
    try:
        binary = build(os.path.join(base, "pbft_bench"))
    except subprocess.CalledProcessError as e:
        sys.exit("run.py: build failed: %s" % e)
    spans = ""
    if args.trace:
        os.makedirs(os.path.join(base, "spans"), exist_ok=True)
        spans = os.path.join(base, "spans", args.workload + ".trace.json")
    sys.exit(run(binary, args, spans))


if __name__ == "__main__":
    main()
