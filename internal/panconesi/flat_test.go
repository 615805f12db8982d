package panconesi_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/panconesi"
)

// TestFlatPassOnFamilies runs EdgeColorAlgo on one graph of every exp family,
// with degBound at Δ and above it (the slack edge/be's leaf bound can have),
// under Lockstep and Compiled: the flat pass must match the per-vertex form
// byte for byte, both must spend exactly Rounds(n, degBound) rounds with
// every vertex arriving at every one, and the coloring must be legal.
func TestFlatPassOnFamilies(t *testing.T) {
	for _, spec := range []exp.GraphSpec{
		{Family: "gnm", N: 64, M: 192, Seed: 1},
		{Family: "regular", N: 48, Deg: 4, Seed: 2},
		{Family: "cycle", N: 17},
		{Family: "path", N: 9},
		{Family: "complete", N: 9},
		{Family: "tree", N: 64, Seed: 3},
		{Family: "geometric", N: 80, Seed: 4},
		{Family: "powercycle", N: 40, Deg: 3},
		{Family: "grid", N: 6, M: 5},
		{Family: "fig1", Deg: 5},
		{Family: "linegraph", N: 20, M: 40, Seed: 5},
		{Family: "hyperline", N: 24, M: 30, Deg: 3, Seed: 6},
		{Family: "gnm", N: 5, M: 0, Seed: 1}, // edgeless: no round at degBound 0
	} {
		g, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		for slack := 0; slack < 3; slack++ {
			degBound := g.MaxDegree() + slack
			algo := panconesi.EdgeColorAlgo(degBound)
			want, err := dist.RunAlgo(g, algo, dist.WithEngine(dist.Lockstep))
			if err != nil {
				t.Fatalf("%v lockstep: %v", spec, err)
			}
			got, err := dist.RunAlgo(g, algo, dist.WithEngine(dist.Compiled))
			if err != nil {
				t.Fatalf("%v compiled: %v", spec, err)
			}
			if !reflect.DeepEqual(got.Outputs, want.Outputs) || got.Stats != want.Stats {
				t.Fatalf("%v degBound %d: compiled %v, lockstep %v", spec, degBound, got.Stats, want.Stats)
			}
			rounds := panconesi.Rounds(g.N(), degBound)
			if st := got.Stats; st.Rounds != rounds || st.Activations != g.N()*rounds {
				t.Fatalf("%v degBound %d: %v, want %d rounds and %d activations", spec, degBound, st, rounds, g.N()*rounds)
			}
			colors, err := graph.MergePortColors(g, got.Outputs)
			if err != nil {
				t.Fatal(err)
			}
			if err := graph.CheckEdgeColoring(g, colors); err != nil {
				t.Fatalf("%v: %v", spec, err)
			}
			if mc := graph.MaxColor(colors); mc > max(2*degBound-1, 0) {
				t.Fatalf("%v: color %d outside the palette {1..%d}", spec, mc, 2*degBound-1)
			}
		}
	}
}

// TestFlatPassRejectsLowBound: a degBound below the graph's degree is outside
// the algorithm's contract; the flat pass refuses it instead of coloring.
func TestFlatPassRejectsLowBound(t *testing.T) {
	g := graph.Star(6)
	_, err := dist.RunAlgo(g, panconesi.EdgeColorAlgo(g.MaxDegree()-1), dist.WithEngine(dist.Compiled))
	if err == nil || !strings.Contains(err.Error(), "exceeds degBound") {
		t.Fatalf("got %v, want a degBound error", err)
	}
}
