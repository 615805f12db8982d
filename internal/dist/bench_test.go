// Benchmarks live in dist_test so they can drive the runtime through real
// workloads from internal/baseline (the service hot paths) without an import
// cycle.
package dist_test

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/wire"
)

// benchEngines is every scheduler, in the order BENCH_runtime.json reports.
var benchEngines = []dist.Engine{dist.Goroutines, dist.Lockstep, dist.Sharded, dist.Compiled}

// denseBenchGraph is the dense 2000-vertex workload the engine comparison is
// stated on: a random graph with 40000 edges (average degree 40).
func denseBenchGraph() *graph.Graph {
	return graph.GNM(2000, 40000, 1)
}

// commAlgo is a communication-heavy, allocation-light algorithm: 8 broadcast
// rounds over a shared message, folding the received bytes. Keeping the
// per-vertex work allocation-free makes the benchmark measure the runtime —
// scheduling, delivery, accounting — rather than the algorithm's own
// garbage.
func commAlgo(v dist.Process) int {
	msg := []byte{byte(v.ID()), byte(v.ID() >> 8), 7, 9}
	acc := 0
	for r := 0; r < 8; r++ {
		in := v.Broadcast(msg)
		for _, m := range in {
			if m != nil {
				acc += int(m[0]) ^ r
			}
		}
	}
	return acc
}

// commBundle runs commAlgo on every engine: scheduled on the three scheduler
// engines, and, having no flat pass, as a one-shot Lockstep run under
// Compiled.
func commBundle() dist.Algo[int] {
	return dist.Algo[int]{Vertex: commAlgo}
}

// BenchmarkEngines compares the four engines on the dense workload, every
// iteration one dist.RunAlgo, as every caller runs them. The "fresh" group
// is the communication-heavy commAlgo; the "hotpath" group is the service
// hot path (greedy edge coloring), where the Compiled engine executes the
// hand-written CSR pass instead of scheduling vertices — the workload the
// ≥10× single-core target is stated on. Custom metrics report the
// LOCAL-model cost so BENCH_runtime.json tracks rounds and message volume
// alongside wall-clock.
//
// Scheduling is the only engine-dependent cost of the comm workloads, so the
// Sharded advantage scales with how much the host parallelizes the shard
// workers. Compiled runs a bundle without a flat pass on one shard, exactly
// as Lockstep; under a hand-written pass it replaces the per-vertex control
// flow entirely.
func BenchmarkEngines(b *testing.B) {
	g := denseBenchGraph()
	for _, w := range []struct {
		name string
		run  func(dist.Engine) (dist.Stats, error)
	}{
		{"fresh", oneShot(g, commBundle())},
		{"hotpath", oneShot(g, baseline.GreedyEdgeAlgo())},
	} {
		for _, e := range benchEngines {
			b.Run(fmt.Sprintf("%s/%v", w.name, e), func(b *testing.B) {
				var stats dist.Stats
				for i := 0; i < b.N; i++ {
					st, err := w.run(e)
					if err != nil {
						b.Fatal(err)
					}
					stats = st
				}
				b.ReportMetric(float64(stats.Rounds), "rounds")
				b.ReportMetric(float64(stats.Bytes), "msgBytes")
			})
		}
	}
}

// oneShot returns one dist.RunAlgo of a on g per call, on the given engine.
func oneShot[T any](g *graph.Graph, a dist.Algo[T]) func(dist.Engine) (dist.Stats, error) {
	return func(e dist.Engine) (dist.Stats, error) {
		res, err := dist.RunAlgo(g, a, dist.WithEngine(e))
		if err != nil {
			return dist.Stats{}, err
		}
		return res.Stats, nil
	}
}

// BenchmarkEnginesChatty is the same comparison on the original irregular
// workload (per-vertex PRNG budgets, varint encode/decode): here the
// algorithm's own allocations dominate, bounding how much any scheduler (or
// the Compiled engine's one-shot run) can matter — the realistic regime for
// algorithms without a hand-written compiled form.
func BenchmarkEnginesChatty(b *testing.B) {
	g := denseBenchGraph()
	algo := func(v dist.Process) int {
		acc := 0
		for r := 0; r < 8; r++ {
			in := v.Broadcast(wire.EncodeInts(v.ID() ^ r))
			for _, msg := range in {
				vals, err := wire.DecodeInts(msg, 1)
				if err != nil {
					panic(err)
				}
				acc += vals[0]
			}
		}
		return acc
	}
	bundle := dist.Algo[int]{Vertex: algo}
	for _, e := range benchEngines {
		b.Run(fmt.Sprintf("%v", e), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dist.RunAlgo(g, bundle, dist.WithEngine(e)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
