package core_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/graph"
)

// flatPlans returns the plans the flat-pass tests run on a graph of maximum
// degree delta: the default vertex/be plan, a leaf-only plan, and, when Δ
// admits one (Δ ≥ 4), the first AutoPlan(Δ, c, 1, p) that recurses, trying
// c = 2 before c = 1.
func flatPlans(t *testing.T, delta int) []*core.Plan {
	t.Helper()
	def, err := core.AutoPlan(delta, 2, 2, 9, false)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := core.NewPlan(delta, 2, 2, 9, delta, false)
	if err != nil {
		t.Fatal(err)
	}
	plans := []*core.Plan{def, leaf}
	for c := 2; c >= 1; c-- {
		for p := 2; p < delta; p++ {
			if pl, err := core.AutoPlan(delta, c, 1, p, false); err == nil && pl.Depth() > 0 {
				return append(plans, pl)
			}
		}
	}
	return plans
}

// TestLegalFlatPassOnFamilies runs LegalColorAlgo on one graph of every exp
// family, in both modes, at depth 0 and — on every family but cycle and
// path, whose Δ = 2 admits none — at depth ≥ 1, under Lockstep and
// Compiled: the flat pass must match the per-vertex form byte for byte (or
// fail with the same error, where a graph's neighborhood independence
// exceeds the plan's c), and a run
// that succeeds must spend exactly LegalRounds rounds with every vertex
// arriving at every one and color legally within the plan's palette.
func TestLegalFlatPassOnFamilies(t *testing.T) {
	deep, failed := 0, 0
	for _, spec := range []exp.GraphSpec{
		{Family: "gnm", N: 64, M: 400, Seed: 1},
		{Family: "regular", N: 48, Deg: 12, Seed: 2},
		{Family: "cycle", N: 17},
		{Family: "path", N: 9},
		{Family: "complete", N: 21},
		{Family: "tree", N: 64, Seed: 3},
		{Family: "geometric", N: 160, Seed: 4},
		{Family: "powercycle", N: 200, Deg: 10},
		{Family: "powercycle", N: 200, Deg: 27},
		{Family: "grid", N: 6, M: 5},
		{Family: "fig1", Deg: 12},
		{Family: "linegraph", N: 20, M: 60, Seed: 5},
		{Family: "hyperline", N: 24, M: 30, Deg: 3, Seed: 6},
	} {
		g, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		delta := g.MaxDegree()
		plans := flatPlans(t, delta)
		if len(plans) < 3 && delta >= 4 {
			t.Fatalf("%v: no recursing plan at Δ=%d", spec, delta)
		}
		for _, pl := range plans {
			if pl.Depth() > 0 {
				deep++
			}
			for _, mode := range []core.Mode{core.StartIDs, core.StartAux} {
				algo, err := core.LegalColorAlgo(g.N(), delta, pl, mode)
				if err != nil {
					t.Fatal(err)
				}
				want, werr := dist.RunAlgo(g, algo, dist.WithEngine(dist.Lockstep))
				got, gerr := dist.RunAlgo(g, algo, dist.WithEngine(dist.Compiled))
				if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
					t.Fatalf("%v %v mode %d: compiled error %v, lockstep %v", spec, pl, mode, gerr, werr)
				}
				if werr != nil {
					failed++
					continue
				}
				if !reflect.DeepEqual(got.Outputs, want.Outputs) || got.Stats != want.Stats {
					t.Fatalf("%v %v mode %d: compiled %v, lockstep %v", spec, pl, mode, got.Stats, want.Stats)
				}
				rounds, err := core.LegalRounds(g.N(), delta, pl, mode)
				if err != nil {
					t.Fatal(err)
				}
				if st := got.Stats; st.Rounds != rounds || st.Activations != g.N()*rounds {
					t.Fatalf("%v %v mode %d: %v, want %d rounds and %d activations", spec, pl, mode, st, rounds, g.N()*rounds)
				}
				if err := graph.CheckVertexColoring(g, got.Outputs); err != nil {
					t.Fatalf("%v %v mode %d: %v", spec, pl, mode, err)
				}
				if mc := graph.MaxColor(got.Outputs); mc > pl.TotalPalette() {
					t.Fatalf("%v %v: color %d outside the palette {1..%d}", spec, pl, mc, pl.TotalPalette())
				}
			}
		}
	}
	if deep < 8 {
		t.Fatalf("only %d recursing plans ran", deep)
	}
	t.Logf("%d recursing plans; %d runs failed alike on both engines", deep, failed)
}

// TestLegalFlatPassErrorsAgree drives LegalColorAlgo outside its contract —
// identifiers above nBound, degrees above the degree bound — so that each
// kind of per-vertex panic fires: the flat pass must fail with the same
// error text as the scheduler, naming the same first failing vertex.
func TestLegalFlatPassErrorsAgree(t *testing.T) {
	for _, tc := range []struct {
		g             *graph.Graph
		nBound, delta int
		want          string
	}{
		{graph.Cycle(200), 30, 2, "linial: color 31 outside palette 1..30"},
		{graph.Cycle(200), 200, 1, "reduce: no free color in block"},
		{graph.PowerOfCycle(200, 10), 200, 2, "conflicts at best point exceed budget"},
		{graph.PowerOfCycle(200, 10), 30, 20, "failed to select ψ within 30 rounds"},
	} {
		pl, err := core.AutoPlan(tc.delta, 2, 2, 9, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []core.Mode{core.StartIDs, core.StartAux} {
			algo, err := core.LegalColorAlgo(tc.nBound, tc.delta, pl, mode)
			if err != nil {
				t.Fatal(err)
			}
			_, werr := dist.RunAlgo(tc.g, algo, dist.WithEngine(dist.Lockstep))
			_, gerr := dist.RunAlgo(tc.g, algo, dist.WithEngine(dist.Compiled))
			if werr == nil || !strings.Contains(werr.Error(), tc.want) {
				t.Fatalf("lockstep error %v, want one containing %q", werr, tc.want)
			}
			if gerr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("compiled error %v, lockstep %v", gerr, werr)
			}
		}
	}
}

// TestLegalCompiledAllocs is the allocation and round budget of one run of
// the flat pass (LegalColorAlgo under the Compiled engine) at the served
// vertex/be plan, on graphs where it has depth 0, 1 and 2: a fixed set of
// whole-graph arrays and buffers, not per-vertex or per-round state, and
// exactly LegalRounds rounds.
func TestLegalCompiledAllocs(t *testing.T) {
	const flatAllocBudget = 30
	for _, k := range []int{3, 10, 27} {
		g := graph.PowerOfCycle(200, k)
		pl, err := core.AutoPlan(g.MaxDegree(), 2, 2, 9, false)
		if err != nil {
			t.Fatal(err)
		}
		algo, err := core.LegalColorAlgo(g.N(), g.MaxDegree(), pl, core.StartIDs)
		if err != nil {
			t.Fatal(err)
		}
		rounds, err := core.LegalRounds(g.N(), g.MaxDegree(), pl, core.StartIDs)
		if err != nil {
			t.Fatal(err)
		}
		var res *dist.Result[int]
		allocs := testing.AllocsPerRun(20, func() {
			if res, err = dist.RunAlgo(g, algo, dist.WithEngine(dist.Compiled)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > flatAllocBudget {
			t.Fatalf("powercycle(200,%d), depth %d: flat pass allocates %.0f allocs/run, budget %d", k, pl.Depth(), allocs, flatAllocBudget)
		}
		if res.Stats.Rounds != rounds {
			t.Fatalf("powercycle(200,%d), depth %d: %d rounds, want %d", k, pl.Depth(), res.Stats.Rounds, rounds)
		}
		t.Logf("powercycle(200,%d), depth %d: %.0f allocs/run (budget %d), %d rounds", k, pl.Depth(), allocs, flatAllocBudget, rounds)
	}
}
