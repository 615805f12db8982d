package dynamic

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/exp"
)

// churnBase is the base graph of a churn session: gnm(128,384).
var churnBase = exp.GraphSpec{Family: "gnm", N: 128, M: 384, Seed: 1}

// BenchmarkCanonicalRun measures the full canonical run a session create
// starts with, as Maintainer.New runs it: the repair bundle over the whole
// base graph under Compiled on a reused runner pool. rounds, activations and
// msgBytes are the run's deterministic LOCAL-model cost.
func BenchmarkCanonicalRun(b *testing.B) {
	g, err := churnBase.Build()
	if err != nil {
		b.Fatal(err)
	}
	pool := dist.NewPool[[]int](g, 1)
	defer pool.Close()
	var stats dist.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, stats, err = CanonicalRun(g, pool.RunAlgo, dist.WithEngine(dist.Compiled)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.Rounds), "rounds")
	b.ReportMetric(float64(stats.Activations), "activations")
	b.ReportMetric(float64(stats.Bytes), "msgBytes")
}

// BenchmarkMaintainerApply measures the mutation path's repair work: one op
// is a 256-mutation window stream over the churn base, applied in 16-op
// batches (the size of a /v1/mutate request) to a fresh Compiled
// maintainer whose construction is not timed. rounds and activations sum
// the stream's repair runs.
func BenchmarkMaintainerApply(b *testing.B) {
	const batch = 16
	base, muts, err := exp.MutationStream{Kind: "window", Base: churnBase, Ops: 256, Window: 32, Seed: 5}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := New(base, Config{Engine: dist.Compiled})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for off := 0; off < len(muts); off += batch {
			if _, _, err := m.Apply(muts[off:min(off+batch, len(muts))]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st = m.Stats()
		m.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(st.RepairRounds), "rounds")
	b.ReportMetric(float64(st.RepairActivations), "activations")
}
