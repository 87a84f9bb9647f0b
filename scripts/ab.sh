#!/usr/bin/env bash
# Parent/child A/B of the repo benchmark on one workload.
#
#   scripts/ab.sh PARENT_REV WORKLOAD PAIRS [SECONDS]
#
# The child is this working tree; the parent is the committed files of
# PARENT_REV (`git archive`, so nothing is registered in .git and an
# interrupted run leaves no stale checkout behind). Each side's
# `evprop-benchmark` is built once, offline, into its own
# CARGO_TARGET_DIR, then the pairs run with `--trace 0`, alternating
# which side goes first (odd pairs: parent first). The seed is the pair
# number; PAIRS is a count N (pairs 1..N) or a range A-B (pairs A..B).
# SECONDS defaults to BENCHMARK.json's `run_seconds`.
#
# Prints one row per run in the EXPERIMENTS.md layout, then per metric
# the medians, the parent's quartiles and the pairs the child won.
# Exits non-zero if any run failed an operation.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
    echo "usage: scripts/ab.sh PARENT_REV WORKLOAD PAIRS [SECONDS]" >&2
    exit 2
fi
rev="$1" workload="$2" pairs="$3"
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
seconds="${4:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
if [[ "$pairs" =~ ^([0-9]+)-([0-9]+)$ ]]; then
    first="${BASH_REMATCH[1]}" last="${BASH_REMATCH[2]}"
elif [[ "$pairs" =~ ^[0-9]+$ ]]; then
    first=1 last="$pairs"
else
    echo "PAIRS must be N or A-B, got '$pairs'" >&2
    exit 2
fi

work="$(mktemp -d "${TMPDIR:-/tmp}/evprop-ab.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$(git rev-parse --verify "$rev^{commit}")" | tar -x -C "$work/parent"

declare -A tree=([parent]="$work/parent" [child]="$root")
for side in parent child; do
    echo "building $side" >&2
    CARGO_TARGET_DIR="$work/$side-target" cargo build --release --offline --quiet \
        --manifest-path "${tree[$side]}/benchmark/Cargo.toml"
done

results="$work/runs.jsonl"
for pair in $(seq "$first" "$last"); do
    if (( pair % 2 )); then order="parent child"; else order="child parent"; fi
    position=1
    for side in $order; do
        echo "$workload pair $pair: $side" >&2
        line="$(cd "${tree[$side]}" && "$work/$side-target/release/evprop-benchmark" \
            --workload "$workload" --seed "$pair" --seconds "$seconds" --trace 0 | tail -n 1)"
        echo "{\"pair\": $pair, \"position\": $position, \"side\": \"$side\", \"run\": $line}" >> "$results"
        position=$((position + 1))
    done
done

python3 - "$results" "$workload" <<'EOF'
import json, statistics, sys

rows = [json.loads(line) for line in open(sys.argv[1])]
workload = sys.argv[2]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]


def value(row, name):
    v = row["run"]["metrics"][name]["value"]
    return v * 1e3 if name == "setup_s" else v


def label(name):
    return "setup_s (ms)" if name == "setup_s" else name


print("| workload | pair | order | side | " + " | ".join(label(m["name"]) for m in metrics) + " | failed |")
print("|---|---:|---|---|" + "---:|" * len(metrics) + "---:|")
for r in rows:
    cells = " | ".join(f"{value(r, m['name']):.3f}" if m["name"] == "setup_s" else
                       f"{value(r, m['name']):.2f}" if m["name"] == "rss_mb" else
                       f"{value(r, m['name']):.1f}" for m in metrics)
    order = "1st" if r["position"] == 1 else "2nd"
    print(f"| {workload} | {r['pair']} | {order} | {r['side']} | {cells} | {r['run']['failed']} |")

print()
print("| workload | metric | median parent | median child | child vs parent | pairs won by child | parent q1–q3 (spread) |")
print("|---|---|---:|---:|---:|---:|---:|")
pairs = sorted({r["pair"] for r in rows})
for m in metrics:
    name = m["name"]
    side = {s: {r["pair"]: value(r, name) for r in rows if r["side"] == s} for s in ("parent", "child")}
    med = {s: statistics.median(side[s].values()) for s in side}
    higher = m["better"] == "higher"
    won = sum((side["child"][p] > side["parent"][p]) if higher else (side["child"][p] < side["parent"][p])
              for p in pairs)
    if name == "throughput_qps":
        change = f"{med['child'] / med['parent']:.2f}×"
    else:
        change = f"{(med['child'] - med['parent']) / med['parent']:+.1%}"
    parent = sorted(side["parent"].values())
    if len(parent) >= 4:
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        spread = f"{q1:.2f}–{q3:.2f} ({q3 - q1:.2f})"
    else:
        spread = "—"
    print(f"| {workload} | {label(name)} | {med['parent']:.2f} | {med['child']:.2f} | {change} "
          f"| {won} / {len(pairs)} | {spread} |")

failed = sum(r["run"]["failed"] for r in rows)
if failed or not all(r["run"]["correct"] for r in rows):
    print(f"{failed} operations failed", file=sys.stderr)
    sys.exit(1)
EOF
