#!/usr/bin/env bash
# End-to-end smoke of the shipped binaries, the CI `smoke` job verbatim:
# boot `evprop serve` over TCP, replay the three golden transcripts
# (tests/golden/{serve,session,registry}_smoke.jsonl) through
# `evprop-loadgen` and diff them byte for byte, churn the registry under
# mixed-tenant load, and validate `evprop trace` exports.
#
#   scripts/smoke.sh        (run from anywhere; builds what it runs)
#
# Binds 127.0.0.1:47923-47926 and writes only under a fresh temp dir
# (`mktemp -d`, so under $TMPDIR when set).
set -euo pipefail

cd "$(dirname "$0")/.."
cargo build --release -p evprop-cli -p evprop-serve
bin="$PWD/target/release"
golden="$PWD/tests/golden"
tmp="$(mktemp -d)"
SERVER=
trap '[ -n "$SERVER" ] && kill "$SERVER" 2>/dev/null; rm -rf "$tmp"' EXIT

"$bin/evprop" export asia > "$tmp/asia.bif"
"$bin/evprop" export student > "$tmp/student.bif"
"$bin/evprop" export sprinkler > "$tmp/sprinkler.bif"

# serve PORT [extra `evprop serve` flags]: boot on asia, wait for the
# listening line.
serve() {
    local port="$1"
    shift
    "$bin/evprop" serve "$tmp/asia.bif" --listen "127.0.0.1:$port" \
        --shards 2 --no-partitioning "$@" > "$tmp/server.log" 2>&1 &
    SERVER=$!
    for _ in $(seq 1 100); do
        grep -q listening "$tmp/server.log" && break
        sleep 0.1
    done
    grep -q listening "$tmp/server.log"
}

stop_server() {
    kill "$SERVER"
    wait "$SERVER" 2>/dev/null || true
    SERVER=
}

# loadgen PORT [flags]: the load generator against that server.
loadgen() {
    local port="$1"
    shift
    "$bin/evprop-loadgen" "$tmp/asia.bif" --addr "127.0.0.1:$port" "$@"
}

echo "== serve: 100 seeded queries vs golden; timing fields are opt-in"
serve 47923
loadgen 47923 --queries 100 --seed 7 --out "$tmp/smoke.jsonl"
loadgen 47923 --queries 20 --seed 7 --timing --out "$tmp/timed.jsonl"
# The plain invocation serves from a registry too: the positional
# network is its default alias.
printf '%s\n' '{"cmd": "model-list"}' > "$tmp/list_request.jsonl"
loadgen 47923 --transcript "$tmp/list_request.jsonl" --out "$tmp/list.jsonl"
stop_server
diff "$tmp/smoke.jsonl" "$golden/serve_smoke.jsonl"
test "$(grep -c '"queue_us":' "$tmp/timed.jsonl")" -eq 20
test "$(grep -c '"exec_us":' "$tmp/timed.jsonl")" -eq 20
! grep -q '"queue_us":' "$golden/serve_smoke.jsonl"
grep -q '"name":"asia"' "$tmp/list.jsonl"

echo "== session: scripted transcript vs golden, then concurrent churn"
# The transcript walks every session mode on one connection — open,
# cached, incremental (with dirty counts), a stateless query interleaved
# mid-session, retraction with zero-separator fallback, no-op deltas,
# unknown-id errors, double close — and the response stream must be
# byte-identical across boots.
serve 47924
loadgen 47924 --transcript "$golden/session_smoke_requests.jsonl" --out "$tmp/session_smoke.jsonl"
loadgen 47924 --session --connections 4 --queries 50 --seed 11 --out "$tmp/session_load.jsonl"
stop_server
diff "$tmp/session_smoke.jsonl" "$golden/session_smoke.jsonl"
# Random churn on asia's deterministic CPTs legitimately hits
# impossible-evidence answers (the session survives them); any other
# error across the concurrent sessions is a bug.
! grep '"error"' "$tmp/session_load.jsonl" | grep -qv 'probability zero'
test "$(grep -c '"mode":' "$tmp/session_load.jsonl")" -gt 0

echo "== registry: model lifecycle transcript vs golden"
# The transcript exercises the whole model lifecycle on one connection —
# list, named queries against both boot models, a wire-load of a third,
# a second version under an existing name, alias swaps (including to a
# missing version), unloads with a session still pinning its version,
# and queries against unloaded names. Its two `model-load` requests name
# /tmp/*.bif; responses never echo a path, so point them at the temp dir.
sed "s|/tmp/|$tmp/|" "$golden/registry_smoke_requests.jsonl" > "$tmp/registry_requests.jsonl"
serve 47925 --model "student=$tmp/student.bif"
grep -q 'loaded model student' "$tmp/server.log"
loadgen 47925 --transcript "$tmp/registry_requests.jsonl" --out "$tmp/registry_smoke.jsonl"
stop_server
diff "$tmp/registry_smoke.jsonl" "$golden/registry_smoke.jsonl"

echo "== registry: load, swap and unload under mixed-tenant load"
# Model lifecycle churn must be invisible to concurrent traffic: zero
# errors across every tenant while a third model is loaded, the alias is
# swapped back and forth, and the loaded model is retired again.
serve 47926 --model "student=$tmp/student.bif"
loadgen 47926 --queries 4000 --models "asia=$tmp/asia.bif,student=$tmp/student.bif" \
    --model-dist zipf --seed 3 --connections 2 --out "$tmp/mixed.jsonl" \
    2> "$tmp/loadgen.log" &
LOADGEN=$!
printf '%s\n' \
    "{\"cmd\": \"model-load\", \"path\": \"$tmp/sprinkler.bif\", \"name\": \"sprinkler\"}" \
    '{"cmd": "model-swap", "name": "student", "version": 1}' \
    '{"cmd": "model-swap", "name": "sprinkler", "version": 1}' \
    '{"cmd": "model-unload", "name": "sprinkler"}' \
    > "$tmp/registry_ctl.jsonl"
loadgen 47926 --transcript "$tmp/registry_ctl.jsonl" --out "$tmp/ctl_out.jsonl"
wait "$LOADGEN"
stop_server
test "$(grep -c '"ok":true' "$tmp/ctl_out.jsonl")" -eq 4
! grep -q '"error"' "$tmp/mixed.jsonl"
grep -q 'model asia:' "$tmp/loadgen.log"
grep -q 'model student:' "$tmp/loadgen.log"

echo "== trace: export and validate Chrome traces"
"$bin/evprop" trace "$tmp/asia.bif" --threads 2 --runs 4 --out "$tmp/asia_trace.json"
# one worker: the private FIFO walk, clocked per task while traced
"$bin/evprop" trace "$tmp/asia.bif" --threads 1 --runs 4 --out "$tmp/asia_walk_trace.json"
"$bin/evprop" trace --random --cliques 48 --width 9 --states 2 --degree 3 \
    --seed 249 --threads 4 --delta 4096 --out "$tmp/tree_trace.json"
"$bin/evprop" trace-validate "$tmp/asia_trace.json"
"$bin/evprop" trace-validate "$tmp/asia_walk_trace.json"
"$bin/evprop" trace-validate "$tmp/tree_trace.json"

echo "smoke ok"
