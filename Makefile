# Development entry points. CI runs three parallel jobs — lint, test-race +
# cover, and the bench/service smokes with a warn-only regression check —
# and a nightly workflow runs the fuzz targets at FUZZTIME=5m. bench and
# bench-service are the full measurement runs that refresh
# BENCH_runtime.json and BENCH_service.json.

GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet fmt cover bench bench-smoke bench-service bench-service-smoke bench-check \
	bench-runtime-check bench-cluster-smoke fuzz-smoke fuzz-builder fuzz-wire-roundtrip fuzz-wire-reader \
	fuzz-dist-compiled fuzz-dynamic-compiled fuzz-wal

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# Coverage gate over the service-critical packages (internal/service,
# internal/dist); fails under the floor. CI runs this.
cover:
	scripts/cover.sh

# Full benchmark pass: root artifact benchmarks + internal/dist engine and
# runner benchmarks, exported as BENCH_runtime.json (ns/op, B/op, allocs/op,
# rounds, msgBytes, ...) so the performance trajectory is tracked per commit.
bench:
	scripts/bench.sh

# One-iteration smoke of the same suite: proves the benchmarks and the JSON
# emitter stay runnable without paying measurement time. CI runs this.
bench-smoke:
	BENCHTIME=1x OUT=/dev/null scripts/bench.sh

# Service load measurement: drives an in-process colord with cmd/loadgen
# (raw persistent-connection driver) and refreshes BENCH_service.json
# (p50/p99 latency, req/s, B/op, allocs/op, cache rates, plus the
# BenchmarkHitPath serving-fast-path microbenchmark).
bench-service:
	scripts/bench_service.sh

# Tiny-duration loadgen pass against a throwaway output: proves colord,
# loadgen, the hit-path microbenchmark (-benchmem), and the JSON pipeline
# stay runnable. CI runs this.
bench-service-smoke:
	DURATION=300ms BENCHTIME=1x SUBS=50 RATE=0 SETTLE=0 OUT=/dev/null scripts/bench_service.sh

# Rerun the service bench and fail if p50, req/s, B/op, or allocs/op regress
# more than 3x against the committed BENCH_service.json (BENCH_WARN_ONLY=1
# in CI).
bench-check:
	scripts/bench_check.sh

# Rerun the runtime bench and fail if ns/op regresses more than 3x — or any
# deterministic LOCAL-model metric drifts at all — against the committed
# BENCH_runtime.json. This guards the compiled hot-path speedup.
bench-runtime-check:
	scripts/bench_runtime_check.sh

# Fuzz targets, FUZZTIME each (10s default; the nightly workflow passes 5m).
fuzz-builder:
	$(GO) test -fuzz FuzzBuilder -fuzztime $(FUZZTIME) -run '^$$' ./internal/graph/
fuzz-wire-roundtrip:
	$(GO) test -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) -run '^$$' ./internal/wire/
fuzz-wire-reader:
	$(GO) test -fuzz FuzzReader -fuzztime $(FUZZTIME) -run '^$$' ./internal/wire/
fuzz-dist-compiled:
	$(GO) test -fuzz FuzzCompiledAgree -fuzztime $(FUZZTIME) -run '^$$' ./internal/dist/
fuzz-dynamic-compiled:
	$(GO) test -fuzz FuzzRepairCompiledAgree -fuzztime $(FUZZTIME) -run '^$$' ./internal/dynamic/
fuzz-wal:
	$(GO) test -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) -run '^$$' ./internal/wal/

# Short fuzz pass over all targets.
fuzz-smoke: fuzz-builder fuzz-wire-roundtrip fuzz-wire-reader fuzz-dist-compiled fuzz-dynamic-compiled fuzz-wal

# Real-binary 3-node cluster smoke: colord x3 + colorgate over loopback,
# byte-stability, full-cluster SIGKILL recovery, and a loadgen pass through
# the gateway. CI runs this.
bench-cluster-smoke:
	DURATION=1s scripts/bench_cluster.sh
