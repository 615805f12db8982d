package core

import (
	"fmt"

	"repro/internal/defective"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/reduce"
)

// Mode selects how the color-reduction chains inside Legal-Color are seeded.
type Mode int

const (
	// StartIDs seeds every chain from the vertex identifiers (palette n), as
	// in the basic §4.1 algorithm; each level pays O(log* n) chain rounds.
	StartIDs Mode = iota
	// StartAux first computes Linial's auxiliary O(Δ²)-coloring ρ once and
	// seeds every later chain from it (palette O(Δ²)), the §4.2 improvement:
	// each level then pays only O(log* Δ) chain rounds.
	StartAux
)

// LegalColoring runs Procedure Legal-Color (Algorithm 2) on a graph with
// neighborhood independence at most pl.C, producing a legal coloring with at
// most pl.TotalPalette() colors. It runs the LegalColorAlgo bundle, so the
// Compiled engine executes the flat pass.
//
// The recursion is executed level-synchronously, which Lemma 4.4 justifies:
// all invocations of one recursion level share the same parameters
// (Λ⁽ⁱ⁾, ϑ⁽ⁱ⁾), so each vertex can carry its own path through the recursion
// tree (the label prefix ψ₁ψ₂…) and restrict each level's Defective-Color to
// the neighbors sharing its prefix. Leaf invocations compute a (Λ⁽ʳ⁾+1)-
// coloring via Linial + palette reduction (substitution N1 in DESIGN.md).
func LegalColoring(g *graph.Graph, pl *Plan, mode Mode, opts ...dist.Option) (*dist.Result[int], error) {
	if pl.Edge {
		return nil, fmt.Errorf("core: edge-mode plan passed to vertex LegalColoring")
	}
	if d := g.MaxDegree(); d > pl.Delta {
		return nil, fmt.Errorf("core: graph degree %d exceeds plan Δ=%d", d, pl.Delta)
	}
	algo, err := LegalColorAlgo(g.N(), g.MaxDegree(), pl, mode)
	if err != nil {
		return nil, err
	}
	return dist.RunAlgo(g, algo, opts...)
}

// LegalColorProcess returns the per-process body of Procedure Legal-Color
// for an arbitrary Process network whose identifier space is bounded by
// nBound and whose maximum degree is at most delta. It powers the Lemma 5.2
// line-graph simulation (package lgsim), where identifiers are edge pairs
// from a space of size (n+1)².
func LegalColorProcess(nBound, delta int, pl *Plan, mode Mode) (func(v dist.Process) int, error) {
	algo, err := LegalColorAlgo(nBound, delta, pl, mode)
	return algo.Vertex, err
}

// LegalRounds returns the exact number of communication rounds every process
// spends in Procedure Legal-Color (the execution is lockstep: chains, ϕ
// exchanges, fixed ψ windows, and the leaf reduction all have schedule-
// determined lengths).
func LegalRounds(nBound, delta int, pl *Plan, mode Mode) (int, error) {
	sched, err := newSchedule(nBound, delta, pl, mode)
	if err != nil {
		return 0, err
	}
	rounds := len(sched.auxSteps)
	for i := 0; i < pl.Depth(); i++ {
		window := linial.FinalPalette(sched.k0, sched.phiSteps[i])
		rounds += len(sched.phiSteps[i]) + 1 + window
	}
	rounds += len(sched.leafSteps)
	rounds += reduce.KWRounds(sched.leafK, pl.LeafBound()+1)
	return rounds, nil
}

// schedule precomputes every reduction chain used by one LegalColoring run;
// it is a deterministic function of global knowledge (n, Δ, plan, mode), so
// in a real deployment every vertex computes it locally.
type schedule struct {
	mode      Mode
	auxSteps  []linial.Step // StartAux: chain for ρ (empty in StartIDs mode)
	k0        int           // palette seeding each per-level chain
	phiSteps  [][]linial.Step
	leafSteps []linial.Step
	leafK     int // palette after leafSteps, reduced to Λ⁽ʳ⁾+1
}

func newSchedule(nBound, delta int, pl *Plan, mode Mode) (*schedule, error) {
	s := &schedule{mode: mode}
	n := nBound
	switch mode {
	case StartIDs:
		s.k0 = n
	case StartAux:
		s.auxSteps = linial.LegalSchedule(n, delta)
		s.k0 = linial.FinalPalette(n, s.auxSteps)
	default:
		return nil, fmt.Errorf("core: unknown mode %d", mode)
	}
	r := pl.Depth()
	s.phiSteps = make([][]linial.Step, r)
	for i := 0; i < r; i++ {
		s.phiSteps[i] = defective.Schedule(s.k0, pl.Levels[i], pl.PhiDef[i])
	}
	s.leafSteps = linial.LegalSchedule(s.k0, pl.LeafBound())
	s.leafK = linial.FinalPalette(s.k0, s.leafSteps)
	return s, nil
}

// legalColorVertex is the per-vertex body of Algorithm 2.
func legalColorVertex(v dist.Process, pl *Plan, s *schedule) int {
	start := v.ID()
	if s.mode == StartAux {
		start = auxStart(v, s)
	}
	return legalColorVertexMasked(v, pl, s, nil, start)
}

// auxStart computes the §4.2 auxiliary O(Δ²)-coloring ρ for this vertex.
func auxStart(v dist.Process, s *schedule) int {
	return linial.RunChain(s.auxSteps, v.ID(), linial.BroadcastExchange(v))
}

// linialLeaf computes the (Λ⁽ʳ⁾+1)-coloring of the leaf subgraph: the legal
// Linial chain down to O(Λ⁽ʳ⁾²) colors followed by Kuhn–Wattenhofer block
// merging down to Λ⁽ʳ⁾+1 in O(Λ⁽ʳ⁾·log Λ⁽ʳ⁾) rounds (substitution N1).
func linialLeaf(v dist.Process, pl *Plan, s *schedule, same []bool, start int) int {
	c := linial.RunChain(s.leafSteps, start, maskedExchange(v, same))
	return reduce.KWReduceColors(v, c, s.leafK, pl.LeafBound()+1, same)
}

// maskedExchange is linial.BroadcastExchange restricted to same-subgraph
// ports.
func maskedExchange(v dist.Process, same []bool) linial.Exchange {
	return func(own int) []int {
		return exchangeInts(v, same, own)
	}
}
