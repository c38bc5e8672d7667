#!/usr/bin/env bash
# One command for the whole PBFT benchmark: runs every workload (or the ones named), prints
# every metric by name, unit and workload, and fails if any result is wrong.
#
# Usage: pbft_bench/pbft.sh [--seed N] [--trace] [WORKLOAD...]
#
# Untraced runs report the end-to-end metrics; --trace reports the per-layer metrics and
# writes Chrome trace-event spans to .bench_build/spans/<workload>.trace.json. Every window
# lasts run_seconds from BENCHMARK.json.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
trace=0
workloads=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --trace) trace=1; shift ;;
    -h|--help) sed -n '2,9p' "$0"; exit 0 ;;
    *) workloads+=("$1"); shift ;;
  esac
done
if [[ ${#workloads[@]} -eq 0 ]]; then
  workloads=(write_closed mixed_open bulk_inproc primary_crash)
fi

logs="${CARGO_TARGET_DIR:-.bench_build}/pbft_sh"
mkdir -p "$logs"
status=0
for w in "${workloads[@]}"; do
  echo "=== $w (seed $seed, $seconds s, trace $trace)"
  if ! python3 pbft_bench/run.py --workload "$w" --seed "$seed" --seconds "$seconds" \
      --trace "$trace" | tee "$logs/$w.log"; then
    status=1
  fi
done

python3 - "$logs" "${workloads[@]}" <<'EOF'
import json, sys
logs, workloads = sys.argv[1], sys.argv[2:]
results = {}
for w in workloads:
    with open("%s/%s.log" % (logs, w)) as f:
        lines = f.read().strip().split("\n")
    try:
        results[w] = json.loads(lines[-1])
    except ValueError:
        results[w] = None
names = []
for r in results.values():
    for n, m in (r or {}).get("metrics", {}).items():
        if (n, m["unit"]) not in names:
            names.append((n, m["unit"]))
print("\n%-40s %-6s" % ("metric", "unit") + "".join(" %15s" % w for w in workloads))
for n, unit in names:
    cells = []
    for w in workloads:
        m = (results[w] or {}).get("metrics", {}).get(n)
        cells.append(" %15.4f" % m["value"] if m else " %15s" % "-")
    print("%-40s %-6s" % (n, unit) + "".join(cells))
row = lambda key: "".join(" %15s" % (results[w] or {}).get(key, "-") for w in workloads)
print("%-47s" % "correct" + row("correct"))
print("%-47s" % "attempted" + row("attempted"))
print("%-47s" % "failed" + row("failed"))
bad = [w for w in workloads
       if not results[w] or not results[w]["correct"] or results[w]["failed"]]
sys.exit(1 if bad else 0)
EOF
exit "$status"
