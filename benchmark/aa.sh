#!/usr/bin/env bash
# A/A check: run every workload N times as set A and N times as set B,
# alternating A and B, and compare the two sets' medians of every
# end-to-end metric against the bound BENCHMARK.json fixes for it.
# Both sets run the same code, so any difference is noise: the check
# passes only if the benchmark's own bounds are wider than its noise.
#
#   benchmark/aa.sh [N]        (default N=5; run from the repo root)
#
# Exits non-zero if any workload x metric differs by more than its bound.
set -euo pipefail

runs="${1:-5}"
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$target/release/evprop-benchmark"
out="$root/benchmark/out"
mkdir -p "$out"
results="$out/aa.jsonl"
: > "$results"

workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for workload in $workloads; do
    for i in $(seq 1 "$runs"); do
        for set in A B; do
            line="$("$bin" --workload "$workload" --seed "$i" --seconds "$seconds" --trace 0 | tail -n 1)"
            echo "{\"set\": \"$set\", \"workload\": \"$workload\", \"run\": $line}" >> "$results"
            echo "$workload run $i set $set done" >&2
        done
    done
done

python3 - "$results" <<'EOF'
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
rows = [json.loads(line) for line in open(sys.argv[1])]
bad = [r for r in rows if not r["run"]["correct"] or r["run"]["failed"]]
worst = 0
print("| workload | metric | median A | median B | B vs A | bound | |")
print("|---|---|---:|---:|---:|---:|---|")
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        med = {}
        for s in "AB":
            vals = [r["run"]["metrics"][m["name"]]["value"]
                    for r in rows if r["set"] == s and r["workload"] == w["name"]]
            med[s] = statistics.median(vals)
        diff = (med["B"] - med["A"]) / med["A"]
        ok = abs(diff) <= m["bound"]
        worst += not ok
        print(f"| {w['name']} | {m['name']} | {med['A']:.6g} | {med['B']:.6g} | {diff:+.2%} | {m['bound']:.0%} | {'ok' if ok else 'OVER'} |")
if bad:
    print(f"{len(bad)} runs had failed operations", file=sys.stderr)
sys.exit(1 if worst or bad else 0)
EOF
