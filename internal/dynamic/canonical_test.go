package dynamic

import (
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

var canonicalFamilies = []struct {
	name string
	g    func() *graph.Graph
}{
	{"gnm", func() *graph.Graph { return graph.GNM(48, 140, 3) }},
	{"cycle", func() *graph.Graph { return graph.Cycle(17) }},
	{"path", func() *graph.Graph { return graph.Path(9) }},
	{"complete", func() *graph.Graph { return graph.Complete(7) }},
	{"tree", func() *graph.Graph { return graph.RandomTree(40, 5) }},
	{"powercycle", func() *graph.Graph { return graph.PowerOfCycle(24, 3) }},
	{"grid", func() *graph.Graph { return graph.Grid(6, 5) }},
	{"star", func() *graph.Graph {
		b := graph.NewBuilder(9)
		for v := 1; v < 9; v++ {
			_ = b.AddEdge(0, v)
		}
		return b.Build()
	}},
	{"single-edge", func() *graph.Graph {
		b := graph.NewBuilder(2)
		_ = b.AddEdge(0, 1)
		return b.Build()
	}},
}

// TestCanonicalColorsLegal: the sequential canonical coloring is a legal
// edge coloring within the first-fit palette bound 2Δ-1.
func TestCanonicalColorsLegal(t *testing.T) {
	for _, f := range canonicalFamilies {
		g := f.g()
		colors := CanonicalColors(g)
		if err := graph.CheckEdgeColoring(g, colors); err != nil {
			t.Errorf("%s: %v", f.name, err)
		}
		if max, bound := graph.MaxColor(colors), 2*g.MaxDegree()-1; max > bound {
			t.Errorf("%s: max color %d exceeds 2Δ-1 = %d", f.name, max, bound)
		}
	}
}

// TestCanonicalRunMatches: the distributed canonical run equals the
// sequential recompute byte-for-byte, on every engine.
func TestCanonicalRunMatches(t *testing.T) {
	engines := []dist.Engine{dist.Goroutines, dist.Lockstep, dist.Sharded, dist.Compiled}
	for _, f := range canonicalFamilies {
		g := f.g()
		want := CanonicalColors(g)
		for _, e := range engines {
			got, stats, err := CanonicalRun(g, nil, dist.WithEngine(e), dist.WithShards(3))
			if err != nil {
				t.Fatalf("%s/%v: %v", f.name, e, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%v: distributed canonical run diverged from sequential recompute", f.name, e)
			}
			if g.M() > 0 && stats.Activations == 0 {
				t.Fatalf("%s/%v: full run reported zero activations", f.name, e)
			}
		}
	}
}

// TestColorSet: the stamp-slice set answers mex and membership like the map
// it replaced, ignores non-colors, and survives its epoch wrapping around.
func TestColorSet(t *testing.T) {
	var s colorSet
	s.reset()
	if got := s.mex(); got != 1 {
		t.Fatalf("empty mex = %d, want 1", got)
	}
	for _, c := range []int{0, -4, 1, 2, 4, 9} {
		s.add(c)
	}
	if got := s.mex(); got != 3 {
		t.Fatalf("mex = %d, want 3", got)
	}
	if s.has(0) || s.has(3) || !s.has(9) || s.has(100) {
		t.Fatal("membership wrong")
	}
	s.epoch = ^uint32(0) // next reset wraps
	s.stamp[1] = 1       // would alias epoch 1 without the clear on wrap
	s.reset()
	if s.has(1) || s.mex() != 1 {
		t.Fatal("stale stamp survived the epoch wrap")
	}
}
