#!/usr/bin/env bash
# bench_check.sh — service benchmark regression gate.
#
# Reruns the service bench suite (scripts/bench_service.sh: coloring mixes +
# churn + the subscribe fan-out + the hit-path microbenchmark) against a
# throwaway output and compares it to the committed BENCH_service.json with
# cmd/benchcmp: the gate fails when p50 latency, subscribe delta-p50 fan-out
# latency, req/s throughput, B/op, or allocs/op regress by more than FACTOR
# (default 3×, loose enough for shared-runner noise; near-zero baselines are
# floored — see cmd/benchcmp). CI runs it warn-only (BENCH_WARN_ONLY=1) so a
# noisy runner cannot block a merge while the regression still lands in the
# log; warn-only never covers the exact colors-used gate, whose drift fails.
#
# Usage:
#   scripts/bench_check.sh                      # full-length run, hard fail
#   DURATION=2s scripts/bench_check.sh          # quick pass
#   FACTOR=5 scripts/bench_check.sh             # looser gate
#   BENCH_WARN_ONLY=1 scripts/bench_check.sh    # report noisy gates, fail on drift (CI)
set -euo pipefail
cd "$(dirname "$0")/.."

FACTOR="${FACTOR:-3}"
CURRENT="$(mktemp)"
trap 'rm -f "$CURRENT"' EXIT

OUT="$CURRENT" DURATION="${DURATION:-5s}" scripts/bench_service.sh

WARN_FLAG=""
if [ -n "${BENCH_WARN_ONLY:-}" ]; then
  WARN_FLAG="-warn"
fi
go run ./cmd/benchcmp -committed BENCH_service.json -current "$CURRENT" -factor "$FACTOR" $WARN_FLAG
