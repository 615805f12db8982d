# Development entry points. CI runs three parallel jobs — lint, test-race +
# cover, and the bench/service smokes with a warn-only runtime regression
# check — and a nightly workflow runs the fuzz targets at FUZZTIME=5m. bench
# is the full measurement run that refreshes BENCH_runtime.json; the
# end-to-end service benchmark is the colordbench module.

GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet fmt cover loc bench bench-smoke \
	bench-runtime-check bench-cluster-smoke fuzz-smoke fuzz-builder fuzz-wire-roundtrip fuzz-wire-reader \
	fuzz-dist-compiled fuzz-dynamic-compiled fuzz-wal fuzz-overlay

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
# internal/dist, internal/dynamic, internal/wal, internal/cluster, plus
# internal/graph/overlay.go and internal/baseline/compiled.go); fails under
# the floor. CI runs this.
cover:
	scripts/cover.sh

# Non-test Go lines per package, the repo module and the nested colordbench
# module totalled separately. scripts/loc.sh REV adds the delta since a git
# revision, the number a deletion states. Informational: gates nothing.
loc:
	scripts/loc.sh

# Full benchmark pass: root artifact benchmarks + the internal/dist engine
# benchmarks and the dynamic, algreg and service rows, exported as
# BENCH_runtime.json (ns/op, B/op, allocs/op, rounds, msgBytes, ...) so the
# performance trajectory is tracked per commit.
bench:
	scripts/bench.sh

# One-iteration smoke of the same suite: proves the benchmarks and the JSON
# emitter stay runnable without paying measurement time. CI runs this.
bench-smoke:
	BENCHTIME=1x OUT=/dev/null scripts/bench.sh

# Rerun the runtime bench and fail if ns/op, B/op or allocs/op regresses more
# than 3x — or any deterministic LOCAL-model metric drifts at all — against
# the committed BENCH_runtime.json. This guards the compiled hot-path speedup
# and the zero-allocation hit path.
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
# Op streams are long byte strings, so minimizing each new input is capped
# at 100 runs; otherwise minimization, not exploration, takes the time.
fuzz-overlay:
	$(GO) test -fuzz FuzzOverlayMirror -fuzztime $(FUZZTIME) -fuzzminimizetime 100x -run '^$$' ./internal/graph/

# Short fuzz pass over all targets.
fuzz-smoke: fuzz-builder fuzz-wire-roundtrip fuzz-wire-reader fuzz-dist-compiled fuzz-dynamic-compiled fuzz-wal fuzz-overlay

# Real-binary 3-node cluster smoke: colord x3 + colorgate over loopback,
# byte-stable reads of every fast-tier algorithm through the gateway and
# full-cluster SIGKILL recovery. CI runs this.
bench-cluster-smoke:
	scripts/bench_cluster.sh
