package dynamic

import (
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/panconesi"
)

// TestRepairCompiledByteEquality: the compiled repair form produces the same
// Outputs AND Stats as the scheduled form — the full dist byte-equality
// contract, not just matching colors — on every canonical family.
func TestRepairCompiledByteEquality(t *testing.T) {
	for _, f := range canonicalFamilies {
		g := f.g()
		bundle := repairBundle(g, make([][]int, g.M()))
		want, err := dist.Run(g, bundle.Vertex, dist.WithEngine(dist.Lockstep))
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		got, err := dist.RunAlgo(g, bundle, dist.WithEngine(dist.Compiled))
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if !reflect.DeepEqual(got.Outputs, want.Outputs) {
			t.Fatalf("%s: compiled repair outputs diverge", f.name)
		}
		if got.Stats != want.Stats {
			t.Fatalf("%s: compiled repair stats diverge: %v vs %v", f.name, got.Stats, want.Stats)
		}
	}
}

// TestRepairCompiledWithForbidden: boundary constraints (the forbidden sets
// a real repair carries) flow through the compiled form identically.
func TestRepairCompiledWithForbidden(t *testing.T) {
	g := graph.GNM(30, 80, 5)
	forbidden := make([][]int, g.M())
	for id := range forbidden {
		switch id % 3 {
		case 0:
			forbidden[id] = []int{1, 2}
		case 1:
			forbidden[id] = []int{2, 4, 5}
		}
	}
	bundle := repairBundle(g, forbidden)
	want, err := dist.Run(g, bundle.Vertex, dist.WithEngine(dist.Goroutines))
	if err != nil {
		t.Fatal(err)
	}
	got, err := dist.RunAlgo(g, bundle, dist.WithEngine(dist.Compiled))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) || got.Stats != want.Stats {
		t.Fatalf("forbidden-constrained repair diverged: %v vs %v", got.Stats, want.Stats)
	}
}

// TestMaintainerStatsEngineIndependent: a full churn stream accumulates
// identical Maintainer stats (repair rounds, bytes, activations) under the
// Compiled and Lockstep engines — the speedup is wall-clock only.
func TestMaintainerStatsEngineIndependent(t *testing.T) {
	s := exp.MutationStream{Kind: "mix", Base: exp.GraphSpec{Family: "gnm", N: 40, M: 110, Seed: 2}, Ops: 80, Seed: 7}
	base, muts, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	stats := make([]Stats, 0, 2)
	for _, e := range []dist.Engine{dist.Lockstep, dist.Compiled} {
		m, err := New(base, Config{Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		if m.Engine() != e {
			t.Fatalf("Engine() = %v, want %v", m.Engine(), e)
		}
		if _, _, err := m.Apply(muts); err != nil {
			t.Fatal(err)
		}
		stats = append(stats, m.Stats())
		m.Close()
	}
	if stats[0] != stats[1] {
		t.Fatalf("maintainer stats depend on engine:\nlockstep: %+v\ncompiled: %+v", stats[0], stats[1])
	}
}

// edgeFlatPasses are the edge flat passes that index their per-slot arrays
// by the graph's slot layout: greedy edge coloring, Panconesi–Rizzi and the
// repair (with no boundary constraints).
func edgeFlatPasses(g *graph.Graph) map[string]dist.Algo[[]int] {
	return map[string]dist.Algo[[]int]{
		"greedy": baseline.GreedyEdgeAlgo(),
		"pr":     panconesi.EdgeColorAlgo(g.MaxDegree()),
		"repair": repairBundle(g, make([][]int, g.M())),
	}
}

// TestEdgeFlatAllocs pins the allocations of the greedy-edge and repair flat
// passes to one budget that holds on a 64-vertex and a 2048-vertex tree: a
// run allocates a fixed number of whole-graph arrays and nothing per vertex
// (the port colors are views of one slot-indexed array).
func TestEdgeFlatAllocs(t *testing.T) {
	const flatAllocBudget = 25
	for _, n := range []int{64, 2048} {
		g := graph.RandomTree(n, 1)
		passes := edgeFlatPasses(g)
		for _, name := range []string{"greedy", "repair"} {
			algo := passes[name]
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := dist.RunAlgo(g, algo, dist.WithEngine(dist.Compiled)); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > flatAllocBudget {
				t.Fatalf("%s on tree(%d): %.0f allocs/run, budget %d", name, n, allocs, flatAllocBudget)
			}
			t.Logf("%s on tree(%d): %.0f allocs/run (budget %d)", name, n, allocs, flatAllocBudget)
		}
	}
}

// TestEdgeFlatOutputsCapped: every edge flat pass hands back its port
// colors as views of one array, each capped at its own length, so appending
// to one vertex's Outputs never writes into the next vertex's.
func TestEdgeFlatOutputsCapped(t *testing.T) {
	g := graph.GNM(40, 120, 3)
	for name, algo := range edgeFlatPasses(g) {
		res, err := dist.RunAlgo(g, algo, dist.WithEngine(dist.Compiled))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := 0; v+1 < g.N(); v++ {
			next := append([]int(nil), res.Outputs[v+1]...)
			_ = append(res.Outputs[v], -1)
			if !reflect.DeepEqual(res.Outputs[v+1], next) {
				t.Fatalf("%s: appending to Outputs[%d] changed Outputs[%d]: %v -> %v", name, v, v+1, next, res.Outputs[v+1])
			}
		}
	}
}
