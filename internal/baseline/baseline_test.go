package baseline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/testutil"
)

func TestGreedyVertexColoring(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm", graph.GNM(100, 500, 1)},
		{"clique", graph.Complete(10)},
		{"path", graph.Path(50)},
		{"tree", graph.RandomTree(80, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := GreedyVertexColoring(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if err := graph.CheckVertexColoring(tc.g, res.Outputs); err != nil {
				t.Fatal(err)
			}
			if mc := graph.MaxColor(res.Outputs); mc > tc.g.MaxDegree()+1 {
				t.Fatalf("palette %d exceeds Δ+1", mc)
			}
		})
	}
}

func TestGreedyEdgeColoring(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm", graph.GNM(60, 300, 3)},
		{"clique", graph.Complete(9)},
		{"star", graph.Star(20)},
		{"regular", graph.RandomRegular(30, 4, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := GreedyEdgeColoring(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			colors, err := graph.MergePortColors(tc.g, res.Outputs)
			if err != nil {
				t.Fatal(err)
			}
			if err := graph.CheckEdgeColoring(tc.g, colors); err != nil {
				t.Fatal(err)
			}
			if mc := graph.MaxColor(colors); mc > 2*tc.g.MaxDegree()-1 {
				t.Fatalf("palette %d exceeds 2Δ-1", mc)
			}
		})
	}
}

// TestGreedyEdgeMessagesDeterministic: the per-vertex greedy edge form's
// status reports list used colors in ascending order, so repeated runs send
// byte-identical messages.
func TestGreedyEdgeMessagesDeterministic(t *testing.T) {
	testutil.CheckTranscriptsStable(t, graph.GNM(64, 192, 1), 3, GreedyEdgeProcess)
}

func TestGreedyEdgeColoringProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(30)
		m := rng.Intn(2*n + 1)
		g := graph.GNM(n, m, seed)
		if g.M() == 0 {
			return true
		}
		res, err := GreedyEdgeColoring(g)
		if err != nil {
			return false
		}
		colors, err := graph.MergePortColors(g, res.Outputs)
		if err != nil {
			return false
		}
		return graph.CheckEdgeColoring(g, colors) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedTrialEdgeColoring(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := graph.GNM(80, 480, seed)
		res, err := RandomizedTrialEdgeColoring(g, dist.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		colors, err := graph.MergePortColors(g, res.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.CheckEdgeColoring(g, colors); err != nil {
			t.Fatal(err)
		}
		if mc := graph.MaxColor(colors); mc > 2*g.MaxDegree()-1 {
			t.Fatalf("palette %d exceeds 2Δ-1", mc)
		}
	}
}

func TestRandomizedTrialReproducible(t *testing.T) {
	g := graph.GNM(40, 200, 9)
	r1, err := RandomizedTrialEdgeColoring(g, dist.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RandomizedTrialEdgeColoring(g, dist.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats != r2.Stats {
		t.Fatalf("same seed, different stats: %v vs %v", r1.Stats, r2.Stats)
	}
}

func TestHPartitionColoring(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm", graph.GNM(120, 600, 5)},
		{"tree", graph.RandomTree(150, 6)},
		{"linegraph", graph.GNM(40, 160, 7).LineGraph()},
		{"clique", graph.Complete(12)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			theta := DefaultTheta(g)
			res, err := HPartitionColoring(g, theta)
			if err != nil {
				t.Fatal(err)
			}
			if err := graph.CheckVertexColoring(g, res.Outputs); err != nil {
				t.Fatal(err)
			}
			if mc := graph.MaxColor(res.Outputs); mc > HPartitionPalette(g, theta) {
				t.Fatalf("palette %d exceeds bound %d", mc, HPartitionPalette(g, theta))
			}
		})
	}
}

func TestHPartitionRoundsScaleWithLogN(t *testing.T) {
	// Rounds should grow with log n for fixed degree structure: compare
	// trees of different sizes (arboricity 1).
	small := graph.RandomTree(1<<7, 1)
	big := graph.RandomTree(1<<11, 1)
	rs, err := HPartitionColoring(small, DefaultTheta(small))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := HPartitionColoring(big, DefaultTheta(big))
	if err != nil {
		t.Fatal(err)
	}
	if rb.Stats.Rounds <= rs.Stats.Rounds {
		t.Fatalf("rounds did not grow with n: %d (n=128) vs %d (n=2048)",
			rs.Stats.Rounds, rb.Stats.Rounds)
	}
}

func TestHPartitionRejectsBadTheta(t *testing.T) {
	if _, err := HPartitionColoring(graph.Cycle(10), 0); err == nil {
		t.Error("theta=0 accepted")
	}
	if _, err := ArbColoring(graph.Cycle(10), 0); err == nil {
		t.Error("arb theta=0 accepted")
	}
}

func TestArbColoringPaletteThetaPlusOne(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"tree", graph.RandomTree(120, 11)},
		{"gnm", graph.GNM(100, 300, 12)},
		{"linegraph", graph.GNM(30, 90, 13).LineGraph()},
		{"clique", graph.Complete(10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			theta := DefaultTheta(g)
			res, err := ArbColoring(g, theta)
			if err != nil {
				t.Fatal(err)
			}
			if err := graph.CheckVertexColoring(g, res.Outputs); err != nil {
				t.Fatal(err)
			}
			if mc := graph.MaxColor(res.Outputs); mc > theta+1 {
				t.Fatalf("palette %d exceeds theta+1 = %d", mc, theta+1)
			}
		})
	}
}

func TestArbVsHPartitionPalettes(t *testing.T) {
	// Arb-Color trades rounds for a much smaller palette than the parallel
	// per-level Linial coloring.
	g := graph.GNM(150, 450, 14)
	theta := DefaultTheta(g)
	arb, err := ArbColoring(g, theta)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := HPartitionColoring(g, theta)
	if err != nil {
		t.Fatal(err)
	}
	arbColors := graph.CountColors(arb.Outputs)
	hpColors := graph.CountColors(hp.Outputs)
	if arbColors >= hpColors {
		t.Fatalf("Arb palette %d not smaller than HP %d", arbColors, hpColors)
	}
	if arb.Stats.Rounds <= hp.Stats.Rounds {
		t.Fatalf("Arb rounds %d should exceed HP %d (the tradeoff)",
			arb.Stats.Rounds, hp.Stats.Rounds)
	}
}
