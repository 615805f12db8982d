#!/usr/bin/env bash
# bench.sh — run the runtime-facing benchmark suite and emit BENCH_runtime.json.
#
# The suite covers the root per-artifact benchmarks and the internal/dist
# engine benchmarks with -benchmem, so the JSON tracks wall-clock
# (ns/op), allocation behavior (B/op, allocs/op), and the LOCAL-model custom
# metrics (rounds, msgBytes, colors, ...) per benchmark. The engine
# benchmarks emit one row per engine per workload
# (BenchmarkEngines/{fresh,hotpath}/{goroutines,lockstep,sharded,compiled}),
# so BENCH_runtime.json shows the whole engine trajectory — including the
# compiled hot-path speedup — side by side. The internal/dynamic rows cover
# the mutation path: the canonical run every session starts with, a
# batched window stream through Maintainer.Apply, and WAL replay. The
# internal/algreg rows (BenchmarkServedAlgos/{alg}/{compiled,lockstep})
# price every servable algorithm on its small-mix graph the way a service
# miss runs it, flat pass or one-shot scheduler run. The internal/service
# rows (BenchmarkHitPath, BenchmarkHitPathParallel) price the serving fast
# path alone, in-process: hash, striped lookup, counters, zero allocations;
# BenchmarkCacheFill prices an evicting miss fill of the striped LRU, and
# BenchmarkServiceNew what an idle service costs.
#
# Usage:
#   scripts/bench.sh                 # full run, writes BENCH_runtime.json
#   BENCHTIME=1x scripts/bench.sh    # quick smoke (CI uses this)
#   OUT=/dev/stdout scripts/bench.sh # print the JSON instead
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
OUT="${OUT:-BENCH_runtime.json}"
TXT="$(mktemp)"
trap 'rm -f "$TXT"' EXIT

go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" . ./internal/dist/ ./internal/dynamic/ ./internal/algreg/ ./internal/service/ | tee "$TXT"
go run ./cmd/benchjson < "$TXT" > "$OUT"
echo "wrote $OUT" >&2
