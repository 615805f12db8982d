#!/usr/bin/env bash
# bench_runtime_check.sh — runtime benchmark regression gate.
#
# Reruns the runtime bench suite (scripts/bench.sh: root artifact benchmarks +
# the per-engine internal/dist rows + the dynamic, algreg and service rows)
# against a throwaway output and compares it to the committed
# BENCH_runtime.json with cmd/benchcmp: the gate fails when ns/op, B/op or
# allocs/op regresses by more than FACTOR (allocation baselines floored at
# 512 B and 4 allocs), or when any deterministic LOCAL-model metric (rounds,
# msgBytes, colors, ...) drifts at all — those are semantics changes, not
# noise. This is the regression guard for the Compiled-engine ≥10× hot-path
# claim: the per-engine hotpath rows sit in the baseline, so losing the
# speedup shows up as an ns/op regression on
# BenchmarkEngines/hotpath/compiled. CI runs it warn-only (BENCH_WARN_ONLY=1)
# because shared runners are too noisy to block merges on wall-clock; the
# exact LOCAL-model gates fail even then.
#
# Usage:
#   scripts/bench_runtime_check.sh                    # full-length run, hard fail
#   BENCHTIME=1x scripts/bench_runtime_check.sh       # quick pass
#   FACTOR=5 scripts/bench_runtime_check.sh           # looser gate
#   BENCH_WARN_ONLY=1 scripts/bench_runtime_check.sh  # report ns/op and allocs, fail on drift (CI)
set -euo pipefail
cd "$(dirname "$0")/.."

FACTOR="${FACTOR:-3}"
CURRENT="$(mktemp)"
trap 'rm -f "$CURRENT"' EXIT

OUT="$CURRENT" BENCHTIME="${BENCHTIME:-1s}" scripts/bench.sh

WARN_FLAG=""
if [ -n "${BENCH_WARN_ONLY:-}" ]; then
  WARN_FLAG="-warn"
fi
go run ./cmd/benchcmp -committed BENCH_runtime.json -current "$CURRENT" -factor "$FACTOR" $WARN_FLAG
