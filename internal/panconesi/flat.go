package panconesi

import (
	"fmt"
	"math/bits"

	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/wire"
)

// EdgeColorAlgo bundles EdgeColorStep(v, nil, degBound) with its flat pass,
// the whole-run form the Compiled engine executes: the same colors and the
// same Stats, computed in one sweep over the graph's CSR arrays instead of
// one coroutine per vertex. degBound must be at least the graph's maximum
// degree; at degBound 0 (an edgeless graph) both forms return at once,
// spending no round.
func EdgeColorAlgo(degBound int) dist.Algo[[]int] {
	return dist.Algo[[]int]{
		Vertex: func(v dist.Process) []int {
			return EdgeColorStep(v, nil, degBound)
		},
		Compiled: flatPass{degBound: degBound},
	}
}

// flatPass is the dist.CompiledAlgo form of EdgeColorStep(v, nil, degBound).
// The per-vertex form's schedule is fixed — 1 labeling round, the forest
// 3-coloring, then two rounds per (label ℓ, forest color j) stage — so the
// pass replays it round by round through a dist.Tally, every vertex
// arriving at every round (idled rounds are activations too):
//   - labeling: each out-edge takes the next label in port order and sends
//     it;
//   - forest.ThreeColorFlat colors one node per (vertex, label) pair;
//   - stage (ℓ, j), round 1: every child whose label-ℓ parent edge is still
//     uncolored sends its used set; round 2: every parent whose forest color
//     is j colors its label-ℓ child edges in ascending port order and sends
//     each color back.
//
// A label-ℓ edge is colored in stage (ℓ, j) for j its parent's forest color,
// so the edges are bucketed by (ℓ, j) once, each bucket in (parent, port)
// order. Parents of one color are independent in their forest, and a child
// is colored only by its one parent, so coloring a bucket's edges in order
// against live used sets reproduces the per-vertex form's messages.
type flatPass struct{ degBound int }

// edgeRef is one edge as its stage sees it: the parent u and child w, and
// the edge's directed slot at each end.
type edgeRef struct{ u, w, us, ws int32 }

func (fp flatPass) RunCompiled(g *graph.Graph, env dist.CompiledEnv, out [][]int) (dist.Stats, error) {
	n, degBound := g.N(), fp.degBound
	if d := g.MaxDegree(); d > degBound {
		return dist.Stats{}, fmt.Errorf("panconesi: graph degree %d exceeds degBound %d", d, degBound)
	}
	if degBound == 0 {
		graph.SlotPortColors(g, []int{}, out) // an edgeless graph: no round
		return dist.Stats{}, nil
	}
	off, rev := g.Slots()
	m2 := off[n]
	t := env.NewTally()

	// Labeling round: out-edges (toward smaller identifiers) take labels
	// 1, 2, ... in port order.
	if err := t.StartRound(n); err != nil {
		return t.Stats, err
	}
	label := make([]int32, m2)
	for v := 0; v < n; v++ {
		id, next := g.ID(v), int32(0)
		for p, u := range g.Neighbors(v) {
			if g.ID(int(u)) < id {
				next++
				label[off[v]+int32(p)] = next
				t.Message(wire.IntLen(int(next)))
			}
		}
	}

	// Forest nodes: one per (vertex, label) pair present, found per vertex
	// through a label-indexed stamp. In-edges take the label the child sent.
	near := make([]int32, m2)
	stamp := make([]int32, degBound+1) // label -> 1 + last vertex that used it
	nodeOf := make([]int32, degBound+1)
	ids := make([]int, 0, m2) // per node: its vertex's identifier
	for v := 0; v < n; v++ {
		for s := off[v]; s < off[v+1]; s++ {
			if label[s] == 0 {
				label[s] = label[rev[s]]
			}
			l := label[s]
			if stamp[l] != int32(v)+1 {
				stamp[l], nodeOf[l] = int32(v)+1, int32(len(ids))
				ids = append(ids, g.ID(v))
			}
			near[s] = nodeOf[l]
		}
	}
	far := make([]int32, m2)
	parent := make([]int32, len(ids))
	for x := range parent {
		parent[x] = -1
	}
	for v := 0; v < n; v++ {
		id := g.ID(v)
		for p, u := range g.Neighbors(v) {
			s := off[v] + int32(p)
			far[s] = near[rev[s]]
			if g.ID(int(u)) < id {
				parent[near[s]] = far[s]
			}
		}
	}
	fcolors, err := forest.ThreeColorFlat(n, ids, parent, near, far, t)
	if err != nil {
		return t.Stats, err
	}

	// Bucket the edges by (ℓ, j), j = the parent's forest color, in (parent,
	// port) order. Identifiers are a permutation of {1..n}, so every forest
	// color is in {1..stages}.
	bucket := func(s int32) int32 {
		return (label[s]-1)*stages + int32(fcolors[near[s]]) - 1
	}
	start := make([]int32, degBound*stages+1)
	for v := 0; v < n; v++ {
		id := g.ID(v)
		for p, u := range g.Neighbors(v) {
			if g.ID(int(u)) > id {
				start[bucket(off[v]+int32(p))+1]++
			}
		}
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	edges := make([]edgeRef, m2/2)
	fill := append([]int32(nil), start[:len(start)-1]...)
	for v := 0; v < n; v++ {
		id := g.ID(v)
		for p, u := range g.Neighbors(v) {
			if g.ID(int(u)) > id {
				s := off[v] + int32(p)
				b := bucket(s)
				edges[fill[b]] = edgeRef{u: int32(v), w: u, us: s, ws: rev[s]}
				fill[b]++
			}
		}
	}

	// Stages. used is one bitset of the palette {1..2·degBound−1} per
	// vertex; usedCount and usedBytes price its used-set message.
	words := (2*degBound + 63) / 64
	used := make([]uint64, n*words)
	usedCount := make([]int, n)
	usedBytes := make([]int, n)
	colors := make([]int, m2)
	mark := func(v int32, c int) {
		used[int(v)*words+c/64] |= 1 << (c % 64)
		usedCount[v]++
		usedBytes[v] += wire.IntLen(c)
	}
	for l := 0; l < degBound; l++ {
		base := l * stages
		for j := 0; j < stages; j++ {
			// Round 1: children of every bucket not yet colored report.
			if err := t.StartRound(n); err != nil {
				return t.Stats, err
			}
			for _, e := range edges[start[base+j]:start[base+stages]] {
				t.Message(wire.UintLen(uint64(usedCount[e.w])) + usedBytes[e.w])
			}
			// Round 2: this bucket's parents color and announce.
			if err := t.StartRound(n); err != nil {
				return t.Stats, err
			}
			for _, e := range edges[start[base+j]:start[base+j+1]] {
				// At most 2·degBound−2 colors are taken at the two ends.
				c := lowestFree(used[int(e.u)*words:int(e.u+1)*words], used[int(e.w)*words:int(e.w+1)*words])
				colors[e.us], colors[e.ws] = c, c
				mark(e.u, c)
				mark(e.w, c)
				t.Message(wire.IntLen(c))
			}
		}
	}
	graph.SlotPortColors(g, colors, out)
	return t.Stats, nil
}

// lowestFree returns the smallest color >= 1 set in neither bitset (both of
// the same length), or 64·len(a) if there is none.
func lowestFree(a, b []uint64) int {
	for k := range a {
		x := a[k] | b[k]
		if k == 0 {
			x |= 1 // color 0 is never a palette color
		}
		if x != ^uint64(0) {
			return 64*k + bits.TrailingZeros64(^x)
		}
	}
	return 64 * len(a)
}
