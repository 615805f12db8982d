// Package dynamic maintains a legal edge coloring under edge churn.
//
// The LOCAL-model algorithms this repository reproduces are local by
// construction: inserting or deleting an edge can only invalidate colors in
// a bounded neighborhood of the touched edge, and bounded neighborhood
// independence keeps that repair region small. Package dynamic turns that
// locality into a first-class workload: a Maintainer owns a mutable overlay
// over an immutable CSR graph (graph.Overlay) and, after every mutation,
// restores the coloring by recoloring only the affected region — executed as
// a real distributed run of the dist engines on the induced repair subgraph
// — instead of recomputing the whole graph.
//
// # The canonical coloring
//
// The maintained coloring is pinned to an explicit, centrally recomputable
// contract. The canonical coloring of a graph assigns every edge, in
// increasing lexicographic (U, V) order (= canonical edge-id order), the
// smallest color >= 1 not used by any lexicographically smaller incident
// edge. It is the unique fixpoint of
//
//	color(e) = mex{ color(f) : f incident to e, f <lex e }
//
// and uses at most 2Δ-1 colors. CanonicalColors computes it sequentially;
// CanonicalRun computes the same colors as a distributed run (each edge
// decides once every lexicographically smaller incident edge has decided,
// so scheduling cannot leak into the output). TestCanonicalRunMatches pins
// the two against each other on every generator family.
//
// # The frontier invariant
//
// Adjacency lists are sorted (graph.Build's CSR layout, pinned by
// TestCSRInvariants), so the edges lexicographically below (v, u), v < u,
// are exactly v's ports below u plus u's ports below v. Every edge waits for
// those, so at every vertex the decided edges — live, or as last broadcast —
// form a prefix of its adjacency. The compiled repair pass (repairCompiled)
// follows each prefix with one frontier pointer, tries only the first
// undecided port of a vertex, and takes each edge's mex once, instead of
// rescanning every undecided edge's neighborhood every round.
//
// # The repair-region contract
//
// Because the canonical coloring is a fixpoint of a local equation, a
// mutation invalidates exactly the edges whose fixpoint inputs change, and
// that set is discoverable by change propagation: the touched edge (for an
// insert) or the incident lexicographic successors of the touched edge (for
// a delete) are re-evaluated, and any edge whose color changes pushes its
// own incident successors, in lexicographic order, until the frontier is
// quiet. The dirty edges form the repair subgraph; committed neighbors
// enter as per-edge forbidden-color sets. The distributed repair run then
// recolors exactly the dirty edges, and the result is — provably and, in
// the tests, byte-verifiably — identical to CanonicalColors of the whole
// mutated graph. Repair cost is measured in dist.Stats.Activations:
// proportional to the affected region, not to n.
package dynamic

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/graph"
)

// CanonicalColors returns the canonical coloring of g: every edge, in
// canonical edge-id (= lexicographic) order, takes the smallest color >= 1
// not used by a lexicographically smaller incident edge. This sequential
// recompute is the ground truth the Maintainer's incrementally repaired
// coloring is byte-compared against.
func CanonicalColors(g *graph.Graph) []int {
	colors := make([]int, g.M())
	var used colorSet
	for id, e := range g.Edges() {
		used.reset()
		for _, w := range [2]int{e.U, e.V} {
			for _, f := range g.IncidentEdgeIDs(w) {
				if int(f) < id {
					used.add(colors[f])
				}
			}
		}
		colors[id] = used.mex()
	}
	return colors
}

// colorSet is a reusable set of colors >= 1 backed by a stamp slice:
// emptying it bumps an epoch instead of clearing a map, so taking the mex of
// an edge's neighborhood costs one pass over it. Colors are palette-bounded,
// so the slice grows to the largest color added and stays there. Call reset
// before the first use.
type colorSet struct {
	stamp []uint32
	epoch uint32
}

// reset empties the set.
func (s *colorSet) reset() {
	s.epoch++
	if s.epoch == 0 { // wrapped: old stamps would alias the new epoch
		clear(s.stamp)
		s.epoch = 1
	}
}

// add inserts c; colors below 1 (0 = undecided) are ignored.
func (s *colorSet) add(c int) {
	if c < 1 {
		return
	}
	if c >= len(s.stamp) {
		s.stamp = append(s.stamp, make([]uint32, c+1-len(s.stamp))...)
	}
	s.stamp[c] = s.epoch
}

// has reports whether c is in the set.
func (s *colorSet) has(c int) bool {
	return c >= 1 && c < len(s.stamp) && s.stamp[c] == s.epoch
}

// mex returns the smallest color >= 1 not in the set.
func (s *colorSet) mex() int {
	c := 1
	for s.has(c) {
		c++
	}
	return c
}

// CanonicalRun computes CanonicalColors(g) as a distributed run: every edge
// is treated as dirty with no external constraints, so the repair algorithm
// degenerates to the full canonical computation. Returns the merged per-edge
// colors and the run's cost. Callers with a reusable runner pool over g pass
// it as run; a nil run falls back to dist.Run.
func CanonicalRun(g *graph.Graph, run RunFunc, opts ...dist.Option) ([]int, dist.Stats, error) {
	if run == nil {
		run = func(a dist.Algo[[]int], opts ...dist.Option) (*dist.Result[[]int], error) {
			return dist.RunAlgo(g, a, opts...)
		}
	}
	res, err := run(repairBundle(g, make([][]int, g.M())), opts...)
	if err != nil {
		return nil, dist.Stats{}, err
	}
	colors, err := graph.MergePortColors(g, res.Outputs)
	if err != nil {
		return nil, dist.Stats{}, err
	}
	if err := graph.CheckEdgeColoring(g, colors); err != nil {
		return nil, dist.Stats{}, fmt.Errorf("dynamic: canonical run produced an illegal coloring: %w", err)
	}
	return colors, res.Stats, nil
}

// RunFunc executes one distributed run of a bundled edge algorithm; it is
// the shape shared by dist.RunAlgo, Runner.RunAlgo, and Pool.RunAlgo bound
// to a graph. Passing the bundle (rather than a bare per-vertex function)
// lets pooled runs execute the compiled form under dist.Compiled.
type RunFunc func(a dist.Algo[[]int], opts ...dist.Option) (*dist.Result[[]int], error)
