package dynamic

import (
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/wire"
)

// repairAlgo returns the distributed recoloring process for a repair
// subgraph: every edge of sub is dirty and must take its canonical color
// given the per-edge forbidden sets (colors of lexicographically smaller
// committed edges outside the subgraph; forbidden[id] constrains the sub
// edge with that id, nil meaning unconstrained).
//
// The algorithm is the dependency-ordered greedy: the edge (u, v) is decided
// by its smaller endpoint as soon as every lexicographically smaller
// incident dirty edge has a color, taking the smallest color >= 1 outside
// forbidden ∪ {colors of the lexicographically smaller incident edges}.
// Decisions are final, so the run computes the unique greedy fixpoint
// regardless of engine or scheduling — byte-identical to the sequential
// first-fit pass CanonicalColors performs, restricted to the dirty set.
//
// Per round every active vertex broadcasts its local view — for each
// incident edge, the far endpoint and the edge's color (0 = undecided) — so
// an owner can check the lexicographic frontier at both endpoints. A vertex
// halts one round after all its incident edges are decided (the extra round
// publishes the final view to the neighbors still deciding). Messages are
// O(deg·log n) bytes; rounds are bounded by twice the length of the longest
// lexicographically increasing path in the dirty region's line graph.
//
// Vertex identifiers of sub must be the default assignment (Builder output;
// ID(v) = v+1), so identifier order, index order, and lexicographic edge
// order agree.
func repairAlgo(sub *graph.Graph, forbidden [][]int) func(dist.Process) []int {
	return func(p dist.Process) []int {
		me := p.ID() - 1 // default ids: identifier order = index order
		deg := p.Deg()
		nbrs := sub.Neighbors(me)
		eids := sub.IncidentEdgeIDs(me)
		colors := make([]int, deg)
		// view[q] is the last state vector received from the neighbor on
		// port q: flat (farEndpoint, color) pairs for each of its incident
		// edges; nil until its first message arrives.
		view := make([][]int, deg)
		var used colorSet

		// lexLess reports whether edge (a1,b1) precedes (a2,b2)
		// lexicographically after canonicalizing endpoint order.
		lexLess := func(a1, b1, a2, b2 int) bool {
			if a1 > b1 {
				a1, b1 = b1, a1
			}
			if a2 > b2 {
				a2, b2 = b2, a2
			}
			if a1 != a2 {
				return a1 < a2
			}
			return b1 < b2
		}

		var msg []byte
		dirty := true // the initial view must be announced before halting
		for {
			done := true
			for _, c := range colors {
				if c == 0 {
					done = false
					break
				}
			}
			if done && !dirty {
				return colors
			}
			if dirty {
				var w wire.Writer
				for q := 0; q < deg; q++ {
					w.Int(int(nbrs[q])).Int(colors[q])
				}
				msg = w.Bytes()
			}
			in := p.Broadcast(msg)
			dirty = false
			for q, b := range in {
				if b == nil {
					continue // neighbor silent (halted); last view stands
				}
				r := wire.NewReader(b)
				flat := view[q]
				flat = flat[:0]
				for r.Remaining() > 0 {
					flat = append(flat, r.Int(), r.Int())
				}
				if r.Err() != nil {
					panic("dynamic: corrupt repair message: " + r.Err().Error())
				}
				view[q] = flat
			}
			// Learn decisions of edges owned by the far endpoint.
			for q := 0; q < deg; q++ {
				if colors[q] != 0 || int(nbrs[q]) > me {
					continue // already known, or this vertex is the owner
				}
				for i := 0; i+1 < len(view[q]); i += 2 {
					if view[q][i] == me && view[q][i+1] != 0 {
						colors[q] = view[q][i+1]
						dirty = true
					}
				}
			}
			// Decide owned edges whose lexicographic frontier is quiet.
			for q := 0; q < deg; q++ {
				other := int(nbrs[q])
				if colors[q] != 0 || other < me {
					continue
				}
				used.reset()
				for _, c := range forbidden[eids[q]] {
					used.add(c)
				}
				blocked := view[q] == nil
				for r := 0; r < deg && !blocked; r++ {
					if r == q || !lexLess(me, int(nbrs[r]), me, other) {
						continue
					}
					if colors[r] == 0 {
						blocked = true
					} else {
						used.add(colors[r])
					}
				}
				for i := 0; i+1 < len(view[q]) && !blocked; i += 2 {
					far, c := view[q][i], view[q][i+1]
					if far == me || !lexLess(other, far, me, other) {
						continue
					}
					if c == 0 {
						blocked = true
					} else {
						used.add(c)
					}
				}
				if !blocked {
					colors[q] = used.mex()
					dirty = true
				}
			}
		}
	}
}
