package algreg_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/algreg"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/graph"
)

// TestRegistryRoundTrip: every registered algorithm is reachable back through
// the public lookup surface — Lookup by (kind, name), Resolve by (kind, name,
// quality) for servable entries, and the generated help — and the servable
// indices form a dense, stable enumeration.
func TestRegistryRoundTrip(t *testing.T) {
	all := algreg.All()
	if len(all) == 0 {
		t.Fatal("registry is empty")
	}
	for _, a := range all {
		got, ok := algreg.Lookup(a.Kind, a.Name)
		if !ok || got != a {
			t.Fatalf("Lookup(%s, %s) = %v, %v; want the registered entry", a.Kind, a.Name, got, ok)
		}
		if a.Servable() {
			r, err := algreg.Resolve(a.Kind, a.Name, a.Quality)
			if err != nil || r != a {
				t.Fatalf("Resolve(%s, %s, %s) = %v, %v", a.Kind, a.Name, a.Quality, r, err)
			}
			// Resolving by name alone is the back-compat path.
			if r, err = algreg.Resolve(a.Kind, a.Name, ""); err != nil || r != a {
				t.Fatalf("Resolve(%s, %s, \"\") = %v, %v", a.Kind, a.Name, r, err)
			}
		} else if _, err := algreg.Resolve(a.Kind, a.Name, ""); err == nil {
			t.Fatalf("CLI-only %s/%s must not resolve for serving", a.Kind, a.Name)
		}
		hasRun := a.RunEdge != nil || a.RunVertex != nil
		if inHelp := strings.Contains("|"+algreg.HelpList(a.Kind)+"|", "|"+a.Name+"|"); inHelp != hasRun {
			t.Fatalf("%s/%s: in help %v, has CLI hook %v", a.Kind, a.Name, inHelp, hasRun)
		}
	}
}

func TestServableIndices(t *testing.T) {
	servable := algreg.Servable()
	if len(servable) == 0 || len(servable) > algreg.MaxServable {
		t.Fatalf("%d servable entries, cap %d", len(servable), algreg.MaxServable)
	}
	for i, a := range servable {
		if a.ServeIndex() != i {
			t.Fatalf("%s/%s at position %d has ServeIndex %d", a.Kind, a.Name, i, a.ServeIndex())
		}
		if a.Quality != algreg.QualityFast && a.Quality != algreg.QualityFewColors {
			t.Fatalf("servable %s/%s has quality %q", a.Kind, a.Name, a.Quality)
		}
	}
}

// TestResolveQualityKnob pins the quality-knob contract: empty alg plus a
// quality picks that tier's first servable entry of the kind; mismatched
// (alg, quality) pairs and unknown tiers are errors; both empty is the
// historical unknown-algorithm error.
func TestResolveQualityKnob(t *testing.T) {
	a, err := algreg.Resolve("edge", "", algreg.QualityFewColors)
	if err != nil || a.Name != "fewcolors" {
		t.Fatalf("edge fewcolors default = %v, %v", a, err)
	}
	a, err = algreg.Resolve("edge", "", algreg.QualityFast)
	if err != nil || a.Name != "be" {
		t.Fatalf("edge fast default = %v, %v", a, err)
	}
	a, err = algreg.Resolve("vertex", "", algreg.QualityFast)
	if err != nil || a.Name != "be" {
		t.Fatalf("vertex fast default = %v, %v", a, err)
	}
	for _, bad := range []struct{ kind, name, quality string }{
		{"edge", "", ""},
		{"edge", "nope", ""},
		{"edge", "rand", ""},                      // CLI-only
		{"edge", "be", algreg.QualityFewColors},   // tier mismatch
		{"edge", "fewcolors", algreg.QualityFast}, // tier mismatch
		{"edge", "", "best"},                      // unknown tier
		{"vertex", "", algreg.QualityFewColors},   // no vertex fewcolors tier yet
		{"vertex", "fewcolors", ""},               // not registered
	} {
		if _, err := algreg.Resolve(bad.kind, bad.name, bad.quality); err == nil {
			t.Fatalf("Resolve(%s, %q, %q): want error", bad.kind, bad.name, bad.quality)
		}
	}
}

// TestServableBuild: every servable entry builds a runnable algorithm with a
// positive palette bound on a small graph, after Canon fills its defaults,
// and its Compiled dist.RunAlgo — the service's code path — gives the
// Outputs and Stats of a Lockstep run. That is the registry contract the
// service relies on.
func TestServableBuild(t *testing.T) {
	g, err := (exp.GraphSpec{Family: "gnm", N: 30, M: 80, Seed: 1}).Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range algreg.Servable() {
		p := algreg.Params{B: 2, C: 2, Mode: "wide"}
		if a.Kind == "edge" {
			p.C = 0
		}
		if err := a.Canon(&p); err != nil {
			t.Fatalf("%s/%s: Canon: %v", a.Kind, a.Name, err)
		}
		var palette int
		if a.Kind == "edge" {
			algo, pal, err := a.BuildEdge(g, p)
			if err != nil {
				t.Fatalf("%s/%s: BuildEdge: %v", a.Kind, a.Name, err)
			}
			if err := compiledMatchesLockstep(g, algo); err != nil {
				t.Fatalf("%s/%s: %v", a.Kind, a.Name, err)
			}
			palette = pal
		} else {
			algo, pal, err := a.BuildVertex(g, p)
			if err != nil {
				t.Fatalf("%s/%s: BuildVertex: %v", a.Kind, a.Name, err)
			}
			if err := compiledMatchesLockstep(g, algo); err != nil {
				t.Fatalf("%s/%s: %v", a.Kind, a.Name, err)
			}
			palette = pal
		}
		if palette <= 0 {
			t.Fatalf("%s/%s: palette bound %d on a non-empty graph", a.Kind, a.Name, palette)
		}
	}
}

// TestServedBundlesHaveFlatPass: at default parameters every servable Build
// hook but edge/fewcolors' returns a bundle with a flat pass, so a default
// miss never enters the scheduler. It checks the small-mix graphs, two
// graphs on which vertex/be's default plan recurses (powercycle(200,10),
// Δ=20, depth 1; powercycle(200,27), Δ=54, depth 2), and an edgeless graph
// (the Δ=0 branches of vertex/be and edge/be); every flat pass must match
// Lockstep.
func TestServedBundlesHaveFlatPass(t *testing.T) {
	const exception = "edge/fewcolors" // flat fewcolors is not written yet
	var graphs []*graph.Graph
	for _, spec := range []exp.GraphSpec{
		smallMixGraphs["edge/be"], smallMixGraphs["edge/pr"], smallMixGraphs["edge/greedy"],
		smallMixGraphs["vertex/be"], smallMixGraphs["vertex/greedy"],
		{Family: "powercycle", N: 200, Deg: 10},
		{Family: "powercycle", N: 200, Deg: 27},
	} {
		g, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	graphs = append(graphs, graph.NewBuilder(5).Build())
	for _, a := range algreg.Servable() {
		name := a.Kind + "/" + a.Name
		p := algreg.Params{B: 2, C: 2, Mode: "wide"}
		if a.Kind == "edge" {
			p.C = 0
		}
		if err := a.Canon(&p); err != nil {
			t.Fatal(err)
		}
		for _, g := range graphs {
			var flat bool
			var err error
			if a.Kind == "edge" {
				algo, _, berr := a.BuildEdge(g, p)
				if berr != nil {
					t.Fatalf("%s on %v: %v", name, g, berr)
				}
				flat = algo.Compiled != nil
				if flat {
					err = compiledMatchesLockstep(g, algo)
				}
			} else {
				algo, _, berr := a.BuildVertex(g, p)
				if berr != nil {
					t.Fatalf("%s on %v: %v", name, g, berr)
				}
				flat = algo.Compiled != nil
				if flat {
					err = compiledMatchesLockstep(g, algo)
				}
			}
			if flat != (name != exception) {
				t.Fatalf("%s on %v: flat pass bundled = %v", name, g, flat)
			}
			if err != nil {
				t.Fatalf("%s on %v: %v", name, g, err)
			}
		}
	}
}

// compiledMatchesLockstep runs algo under Compiled and under Lockstep, and
// reports any difference in Outputs or Stats.
func compiledMatchesLockstep[T any](g *graph.Graph, algo dist.Algo[T]) error {
	if algo.Vertex == nil {
		return errors.New("algo has no Vertex form")
	}
	want, err := dist.RunAlgo(g, algo, dist.WithEngine(dist.Lockstep))
	if err != nil {
		return fmt.Errorf("lockstep: %v", err)
	}
	got, err := dist.RunAlgo(g, algo, dist.WithEngine(dist.Compiled))
	if err != nil {
		return fmt.Errorf("compiled: %v", err)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) || got.Stats != want.Stats {
		return fmt.Errorf("compiled run (%v) differs from lockstep (%v)", got.Stats, want.Stats)
	}
	return nil
}

// TestKWAllocs is the allocation budget of one per-vertex vertex/be run —
// the Procedure Legal-Color pipeline whose leaf is reduce.KWReduceColors —
// on its small-mix graph, with the service's default parameters. Bundled
// without its flat pass, the Compiled engine runs it as a one-shot Lockstep
// run; the flat pass has its own budget (core's TestLegalCompiledAllocs).
func TestKWAllocs(t *testing.T) {
	const kwAllocBudget = 1100
	a, ok := algreg.Lookup("vertex", "be")
	if !ok {
		t.Fatal("vertex/be is not registered")
	}
	g, err := smallMixGraphs["vertex/be"].Build()
	if err != nil {
		t.Fatal(err)
	}
	p := algreg.Params{B: 2, C: 2, Mode: "wide"}
	if err := a.Canon(&p); err != nil {
		t.Fatal(err)
	}
	built, _, err := a.BuildVertex(g, p)
	if err != nil {
		t.Fatal(err)
	}
	algo := dist.Algo[int]{Vertex: built.Vertex}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := dist.RunAlgo(g, algo, dist.WithEngine(dist.Compiled)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > kwAllocBudget {
		t.Fatalf("vertex/be run allocates %.0f allocs/run, budget %d", allocs, kwAllocBudget)
	}
	t.Logf("vertex/be run: %.0f allocs/run (budget %d)", allocs, kwAllocBudget)
}

// TestLegalEdgeFlatPassAtDepthZero: edge/be carries the Panconesi–Rizzi flat
// pass exactly when its plan has no Defective-Color level (the default p=6
// on the small-mix graph, Δ=13), and keeps the per-vertex form alone on a
// deeper plan (p=12 on a star with Δ=79). Either way Compiled matches
// Lockstep.
func TestLegalEdgeFlatPassAtDepthZero(t *testing.T) {
	a, ok := algreg.Lookup("edge", "be")
	if !ok {
		t.Fatal("edge/be is not registered")
	}
	small, err := smallMixGraphs["edge/be"].Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		p    int
		flat bool
	}{
		{"small-mix/p=6", small, 6, true},
		{"star(80)/p=12", graph.Star(80), 12, false},
	} {
		p := algreg.Params{B: 2, P: tc.p, Mode: "wide"}
		if err := a.Canon(&p); err != nil {
			t.Fatal(err)
		}
		algo, _, err := a.BuildEdge(tc.g, p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := algo.Compiled != nil; got != tc.flat {
			t.Fatalf("%s: flat pass bundled = %v, want %v", tc.name, got, tc.flat)
		}
		if err := compiledMatchesLockstep(tc.g, algo); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}
