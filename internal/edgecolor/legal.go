package edgecolor

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/panconesi"
)

// LegalEdgeColoring runs the §5 edge variant of Procedure Legal-Color on a
// general graph g: a legal edge coloring with at most pl.TotalPalette()
// colors, where pl is an edge-mode core.Plan (pl.Edge == true, c = 2).
//
// Execution is level-synchronous like the vertex variant: each edge carries
// its path through the recursion tree (ψ₁ψ₂…), co-maintained by both
// endpoints; level i runs the edge Defective-Color on all label classes
// simultaneously (they are edge-disjoint); the leaves are colored by the
// multi-class Panconesi–Rizzi (2Λ⁽ʳ⁾−1)-edge-coloring, all classes in
// parallel with disjoint palettes. Returns per-vertex port colorings (merge
// with graph.MergePortColors).
func LegalEdgeColoring(g *graph.Graph, pl *core.Plan, mode MsgMode, opts ...dist.Option) (*dist.Result[[]int], error) {
	algo, err := LegalEdgeAlgo(g.MaxDegree(), pl, mode)
	if err != nil {
		return nil, err
	}
	return dist.RunAlgo(g, algo, opts...)
}

// LegalEdgeAlgo returns the algorithm LegalEdgeColoring runs on a graph of
// maximum degree delta, validated against the plan, as a dist.Algo bundle.
// A plan of depth 0 has no Defective-Color level: with every edge in one
// class, the run is exactly panconesi.EdgeColorStep(v, nil, LeafBound), so
// the bundle carries panconesi's flat pass. Deeper plans carry the
// per-vertex form only.
func LegalEdgeAlgo(delta int, pl *core.Plan, mode MsgMode) (dist.Algo[[]int], error) {
	if !pl.Edge {
		return dist.Algo[[]int]{}, fmt.Errorf("edgecolor: vertex-mode plan passed to LegalEdgeAlgo")
	}
	if delta > pl.Delta {
		return dist.Algo[[]int]{}, fmt.Errorf("edgecolor: graph degree %d exceeds plan Δ=%d", delta, pl.Delta)
	}
	algo := dist.Algo[[]int]{Vertex: func(v dist.Process) []int {
		return legalEdgeVertex(v, pl, mode, nil)
	}}
	if pl.Depth() == 0 {
		algo.Compiled = panconesi.EdgeColorAlgo(pl.LeafBound()).Compiled
	}
	return algo, nil
}

// legalEdgeVertex is the per-vertex body of the edge Legal-Color. initClass
// optionally pre-partitions the edges (per port, 0-based class, -1 =
// excluded; nil = all edges in class 0): the §6 extensions use it to run the
// recursion on many edge-disjoint classes in parallel, each class keeping
// its own disjoint palette of size pl.TotalPalette(). Returns per-port
// colors (0 on excluded ports).
func legalEdgeVertex(v dist.Process, pl *core.Plan, mode MsgMode, initClass []int) []int {
	deg := v.Deg()
	// classIdx[port] encodes the edge's recursion path in base p (0-based),
	// prefixed by its initial class; -1 marks excluded ports.
	classIdx := make([]int, deg)
	offsets := make([]int, deg) // class·ϑ⁽⁰⁾ + Σ (ψ_i−1)·ϑ⁽ⁱ⁺¹⁾ per edge
	for port := range classIdx {
		if initClass != nil {
			classIdx[port] = initClass[port]
			if initClass[port] >= 0 {
				offsets[port] = initClass[port] * pl.TotalPalette()
			}
		}
	}
	r := pl.Depth()
	for level := 0; level < r; level++ {
		classOf := make([]int, deg)
		for port := range classOf {
			if classIdx[port] >= 0 {
				classOf[port] = classIdx[port] + 1
			}
		}
		psis := DefectiveEdgeStep(v, classOf, pl.P, pl.B*pl.P, pl.Levels[level], mode)
		for port := range classIdx {
			if classIdx[port] < 0 {
				continue
			}
			classIdx[port] = classIdx[port]*pl.P + (psis[port] - 1)
			offsets[port] += (psis[port] - 1) * pl.Thetas[level+1]
		}
	}
	// Leaf: multi-class Panconesi–Rizzi with degree bound Λ⁽ʳ⁾.
	classOf := make([]int, deg)
	for port := range classOf {
		if classIdx[port] >= 0 {
			classOf[port] = classIdx[port] + 1
		}
	}
	leaf := panconesi.EdgeColorMulti(v, classOf, pl.LeafBound())
	colors := make([]int, deg)
	for port := range colors {
		if classIdx[port] >= 0 {
			colors[port] = offsets[port] + leaf[port]
		}
	}
	return colors
}

// Rounds returns the exact round cost of LegalEdgeColoring for an n-vertex
// graph under the given plan and message mode.
func Rounds(n int, pl *core.Plan, mode MsgMode) int {
	pPrime := pl.B * pl.P
	window := pPrime * pPrime
	if mode == Short {
		window = (pPrime*pPrime + 1) * (pl.P + 1)
	}
	perLevel := 1 + window // labeling round + ψ window
	return pl.Depth()*perLevel + panconesi.Rounds(n, pl.LeafBound())
}
