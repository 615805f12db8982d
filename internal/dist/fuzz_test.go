package dist_test

import (
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/panconesi"
)

// FuzzCompiledAgree fuzzes the two execution paths that can still diverge
// from the Lockstep scheduler, on an arbitrary graph built from the byte
// stream:
//   - the multi-shard scheduler: chatty under Sharded on 1 + k%8 shards,
//     whose cross-shard queues and reverse-port inbox slots a single shard
//     never exercises;
//   - the hand-written flat passes under Compiled: the greedy vertex and
//     edge colorings, and Panconesi–Rizzi with degBound Δ + k%3 (the slack
//     edge/be's leaf bound can have), and Procedure Legal-Color in both
//     modes at the default vertex plan, each once uncapped and once under
//     WithMaxRounds(1 + k%40), so a tripped cap's error text and partial
//     Stats are compared too. Legal-Color assumes neighborhood
//     independence at most 2, which arbitrary graphs break, so its
//     per-vertex panics are compared as well.
//
// Each must agree with Lockstep byte for byte — Outputs, Stats and error
// text — so any delivery, port or accounting confusion shows up as a diff.
func FuzzCompiledAgree(f *testing.F) {
	f.Add(6, []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0}, int64(0), byte(1))
	f.Add(8, []byte{0, 1, 0, 2, 0, 3, 1, 2, 4, 5, 6, 7, 2, 6}, int64(3), byte(2))
	f.Add(1, []byte{}, int64(1), byte(7))
	f.Fuzz(func(t *testing.T, n int, stream []byte, seed int64, k byte) {
		if n < 0 || n > 48 {
			return
		}
		if len(stream) > 128 {
			stream = stream[:128]
		}
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(stream); i += 2 {
			if n > 0 {
				b.TryAddEdge(int(stream[i])%n, int(stream[i+1])%n)
			}
		}
		g := b.Build()
		seeded := dist.WithSeed(seed)
		lockstep := dist.WithEngine(dist.Lockstep)

		want, werr := dist.Run(g, dist.Chatty, seeded, lockstep)
		got, gerr := dist.Run(g, dist.Chatty, seeded, dist.WithEngine(dist.Sharded), dist.WithShards(1+int(k%8)))
		agree(t, "chatty on sharded", want, got, werr, gerr)

		wantV, werr := dist.RunAlgo(g, baseline.GreedyVertexAlgo(), seeded, lockstep)
		gotV, gerr := dist.RunAlgo(g, baseline.GreedyVertexAlgo(), seeded, dist.WithEngine(dist.Compiled))
		agree(t, "greedy vertex on compiled", wantV, gotV, werr, gerr)

		wantE, werr := dist.RunAlgo(g, baseline.GreedyEdgeAlgo(), seeded, lockstep)
		gotE, gerr := dist.RunAlgo(g, baseline.GreedyEdgeAlgo(), seeded, dist.WithEngine(dist.Compiled))
		agree(t, "greedy edge on compiled", wantE, gotE, werr, gerr)

		pr := panconesi.EdgeColorAlgo(g.MaxDegree() + int(k%3))
		wantP, werr := dist.RunAlgo(g, pr, seeded, lockstep)
		gotP, gerr := dist.RunAlgo(g, pr, seeded, dist.WithEngine(dist.Compiled))
		agree(t, "panconesi on compiled", wantP, gotP, werr, gerr)

		capped := dist.WithMaxRounds(1 + int(k%40))
		wantP, werr = dist.RunAlgo(g, pr, capped, lockstep)
		gotP, gerr = dist.RunAlgo(g, pr, capped, dist.WithEngine(dist.Compiled))
		agree(t, "capped panconesi on compiled", wantP, gotP, werr, gerr)

		if g.MaxDegree() == 0 {
			return
		}
		pl, err := core.AutoPlan(g.MaxDegree(), 2, 2, 9, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []core.Mode{core.StartIDs, core.StartAux} {
			legal, err := core.LegalColorAlgo(g.N(), g.MaxDegree(), pl, mode)
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range []dist.Option{seeded, capped} {
				wantL, werr := dist.RunAlgo(g, legal, opt, lockstep)
				gotL, gerr := dist.RunAlgo(g, legal, opt, dist.WithEngine(dist.Compiled))
				agree(t, "legal-color on compiled", wantL, gotL, werr, gerr)
			}
		}
	})
}

// agree fails t unless a run (got, gerr) matches the Lockstep reference
// (want, werr) exactly: the same error text, or the same Outputs and Stats.
func agree[T any](t *testing.T, what string, want, got *dist.Result[T], werr, gerr error) {
	t.Helper()
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: error mismatch: lockstep %v, got %v", what, werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("%s: error text mismatch: %v vs %v", what, werr, gerr)
		}
		return
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Fatalf("%s: outputs diverged", what)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats diverged: %v vs %v", what, got.Stats, want.Stats)
	}
}
