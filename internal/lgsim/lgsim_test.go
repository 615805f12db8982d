package lgsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/testutil"
	"repro/internal/wire"
)

func TestVirtualIDRoundTrip(t *testing.T) {
	n := 37
	seen := map[int]bool{}
	for a := 1; a <= n; a++ {
		for b := a + 1; b <= n; b++ {
			vid := VirtualID(n, a, b)
			if vid != VirtualID(n, b, a) {
				t.Fatal("VirtualID not symmetric")
			}
			if seen[vid] {
				t.Fatalf("vid collision at (%d,%d)", a, b)
			}
			seen[vid] = true
			lo, hi := vidEndpoints(n, vid)
			if lo != a || hi != b {
				t.Fatalf("decode (%d,%d) -> (%d,%d)", a, b, lo, hi)
			}
		}
	}
}

func TestSharedEndpoint(t *testing.T) {
	n := 10
	e := VirtualID(n, 2, 5)
	f := VirtualID(n, 5, 9)
	x, ok := sharedEndpoint(n, e, f)
	if !ok || x != 5 {
		t.Fatalf("shared = %d,%v; want 5", x, ok)
	}
	g := VirtualID(n, 3, 7)
	if _, ok := sharedEndpoint(n, e, g); ok {
		t.Fatal("disjoint edges reported as sharing an endpoint")
	}
}

// TestBundlesDeterministic: physical bundles list their virtual messages in
// vid order, so repeated simulations send byte-identical physical messages.
func TestBundlesDeterministic(t *testing.T) {
	g := graph.GNM(24, 80, 3)
	deltaL := lineGraphDegree(g)
	announce := func(v dist.Process) int {
		v.Broadcast(wire.EncodeInts(v.ID()))
		return 0
	}
	testutil.CheckTranscriptsStable(t, g, 3, func(v dist.Process) []int {
		return newHost[int](v, g.N(), deltaL, 1, 0, announce).run()
	})
}

// TestEchoProtocol runs a 2-virtual-round protocol: every virtual vertex
// broadcasts its id, then broadcasts the max received id; the outputs must
// equal a native run on L(G).
func TestEchoProtocol(t *testing.T) {
	g := graph.GNM(24, 80, 3)
	algo := func(v dist.Process) int {
		best := v.ID()
		for round := 0; round < 2; round++ {
			in := v.Broadcast(wire.EncodeInts(best))
			for _, msg := range in {
				if msg == nil {
					continue
				}
				vals, err := wire.DecodeInts(msg, 1)
				if err != nil {
					panic(err)
				}
				if vals[0] > best {
					best = vals[0]
				}
			}
		}
		return best
	}
	sim, err := Run(g, 2, algo)
	if err != nil {
		t.Fatal(err)
	}
	// Native run on the explicitly constructed line graph, with the same
	// virtual identifier assignment.
	lg := g.LineGraph()
	ids := make([]int, lg.N())
	vidOf := make([]int, lg.N())
	for i, e := range g.Edges() {
		vidOf[i] = VirtualID(g.N(), g.ID(e.U), g.ID(e.V))
	}
	// Rank vids to build a permutation for lg's identifiers that preserves
	// the vid ORDER (the CV/linial algorithms only depend on relative order
	// plus the id space bound; for exact equality we run the algo on lg with
	// overridden behavior instead — simpler: compare against a direct
	// simulation of the same protocol on lg using vids).
	_ = ids
	native := make([]int, lg.N())
	for i := range native {
		native[i] = vidOf[i]
	}
	for round := 0; round < 2; round++ {
		next := make([]int, lg.N())
		copy(next, native)
		for v := 0; v < lg.N(); v++ {
			for _, u := range lg.Neighbors(v) {
				if native[u] > next[v] {
					next[v] = native[u]
				}
			}
		}
		native = next
	}
	for id := range sim.Outputs {
		if sim.Outputs[id] != native[id] {
			t.Fatalf("edge %d: simulated %d vs native %d", id, sim.Outputs[id], native[id])
		}
	}
	// Lemma 5.2 cost: 2T + 1 setup round.
	if want := 2*2 + 1; sim.Physical.Rounds != want {
		t.Fatalf("physical rounds = %d, want %d", sim.Physical.Rounds, want)
	}
}

// TestLinialOnSimulatedLineGraph runs the Linial chain on virtual L(G)
// vertices and checks the result is a legal edge coloring of G with an
// O(Δ_L²) palette.
func TestLinialOnSimulatedLineGraph(t *testing.T) {
	g := graph.GNM(30, 90, 5)
	n := g.N()
	deltaL := lineGraphDegree(g)
	steps := linial.LegalSchedule(VirtualIDSpace(n), deltaL)
	algo := func(v dist.Process) int {
		return linial.RunChain(steps, v.ID(), linial.BroadcastExchange(v))
	}
	sim, err := Run(g, len(steps), algo)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckEdgeColoring(g, sim.Outputs); err != nil {
		t.Fatal(err)
	}
	if mc := graph.MaxColor(sim.Outputs); mc > 40*deltaL*deltaL+50 {
		t.Fatalf("palette %d not O(Δ_L²)", mc)
	}
	if sim.Physical.Rounds != 2*len(steps)+1 {
		t.Fatalf("rounds = %d, want 2T+1 = %d", sim.Physical.Rounds, 2*len(steps)+1)
	}
}

// TestLegalColorSimulatedMatchesTheorem53 is the full Theorem 5.3 pipeline:
// the vertex Procedure Legal-Color, run on simulated L(G) vertices hosted on
// G, must produce a legal edge coloring of G within the plan's palette.
func TestLegalColorSimulatedMatchesTheorem53(t *testing.T) {
	g := graph.GNM(28, 84, 7)
	n := g.N()
	deltaL := lineGraphDegree(g)
	pl, err := core.AutoPlan(deltaL, 2, 2, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	algo, err := core.LegalColorProcess(VirtualIDSpace(n), deltaL, pl, core.StartAux)
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := core.LegalRounds(VirtualIDSpace(n), deltaL, pl, core.StartAux)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Run(g, rounds, algo)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.CheckEdgeColoring(g, sim.Outputs); err != nil {
		t.Fatal(err)
	}
	if mc := graph.MaxColor(sim.Outputs); mc > pl.TotalPalette() {
		t.Fatalf("palette %d exceeds bound %d", mc, pl.TotalPalette())
	}
	if sim.Physical.Rounds != 2*rounds+1 {
		t.Fatalf("physical rounds = %d, want 2T+1 = %d", sim.Physical.Rounds, 2*rounds+1)
	}
	// The ×Δ message blowup should be visible: bundles carry several
	// virtual messages.
	if sim.Physical.MaxMessageBytes <= 4 {
		t.Fatalf("expected bundled messages, max is only %dB", sim.Physical.MaxMessageBytes)
	}
}

// TestMessageBlowupBounded verifies the Lemma 5.2 size accounting: a bundle
// carries at most 2(Δ-1) virtual messages of the underlying algorithm.
func TestMessageBlowupBounded(t *testing.T) {
	g := graph.Complete(10)
	algo := func(v dist.Process) int {
		v.Broadcast(wire.EncodeInts(v.ID()))
		return 0
	}
	sim, err := Run(g, 1, algo)
	if err != nil {
		t.Fatal(err)
	}
	// Each virtual message is ~4-5B plus ~5B of addressing; a physical edge
	// carries bundles from up to Δ_L-ish messages. Just check the bound is
	// proportional to Δ·(payload+header).
	deltaL := lineGraphDegree(g)
	if sim.Physical.MaxMessageBytes > deltaL*24 {
		t.Fatalf("bundle size %dB exceeds Δ_L·24 = %d", sim.Physical.MaxMessageBytes, deltaL*24)
	}
}

// TestEarlyVirtualHalt has half the virtual vertices stop after one round
// while the rest run three; relays must keep flowing.
func TestEarlyVirtualHalt(t *testing.T) {
	g := graph.GNM(20, 60, 9)
	algo := func(v dist.Process) int {
		rounds := 1
		if v.ID()%2 == 0 {
			rounds = 3
		}
		last := 0
		for i := 0; i < rounds; i++ {
			in := v.Broadcast(wire.EncodeInts(v.ID() + i))
			for _, msg := range in {
				if msg != nil {
					vals, _ := wire.DecodeInts(msg, 1)
					last = vals[0]
				}
			}
		}
		return last
	}
	if _, err := Run(g, 3, algo); err != nil {
		t.Fatal(err)
	}
}

func TestLineGraphDegree(t *testing.T) {
	g := graph.Star(6) // all 5 edges share the center: Δ_L = 4
	if d := lineGraphDegree(g); d != 4 {
		t.Fatalf("Δ_L = %d, want 4", d)
	}
	p := graph.Path(3) // two edges sharing one vertex: Δ_L = 1
	if d := lineGraphDegree(p); d != 1 {
		t.Fatalf("Δ_L = %d, want 1", d)
	}
}
