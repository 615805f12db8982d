// Package repro is a from-scratch Go reproduction of
//
//	Leonid Barenboim, Michael Elkin.
//	"Distributed Deterministic Edge Coloring using Bounded Neighborhood
//	Independence." PODC 2011 (arXiv:1010.2454).
//
// The library implements the paper's LOCAL-model algorithms — Procedure
// Defective-Color, Procedure Legal-Color, their §5 edge-coloring variants
// for general graphs, and the §6 extensions — together with every substrate
// they depend on (a synchronous message-passing simulator whose one
// sharded coroutine scheduler runs under three interchangeable engine
// names — Goroutines, Lockstep (one shard), and Sharded — plus a Compiled
// engine for hand-written flat passes, every run one-shot;
// CSR graphs with build-time reverse slots; Linial's cover-free color
// reduction, Kuhn's defective colorings, Cole–Vishkin forest 3-coloring,
// Panconesi–Rizzi edge coloring) and the baselines the paper compares
// against.
//
// Determinism makes the algorithms servable: cmd/colord is a long-running
// HTTP/JSON coloring daemon (internal/service) with a deterministic result
// cache keyed by canonical graph fingerprints, single-flight coalescing of
// concurrent misses, and a bounded worker stage of one-shot runs; cmd/loadgen
// drives it with mixed closed-loop workloads and reports latency and
// throughput, and the colordbench module is its end-to-end benchmark.
// Locality makes them maintainable: internal/dynamic keeps a legal edge
// coloring across edge insertions and deletions by running the dist engines
// on only the induced repair region (POST /v1/mutate serves named mutable
// graph sessions; loadgen's churn mode measures mutation throughput against
// deterministic exp.MutationStream workloads), with the maintained coloring
// byte-identical to a documented canonical recompute of the mutated graph at
// every step.
//
// Start at DESIGN.md for the system inventory, README.md for the
// quickstarts, EXPERIMENTS.md for the measured reproduction of every table
// and figure, examples/quickstart for the API, and cmd/repro to regenerate
// all experiment artifacts (its -engine and -workers flags select the
// scheduler and the experiment worker pool; artifacts are byte-identical
// either way). The root bench_test.go exposes one benchmark per paper
// artifact, and scripts/bench.sh (make bench) exports the whole benchmark
// suite as BENCH_runtime.json.
package repro
