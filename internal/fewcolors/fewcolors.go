// Package fewcolors implements the service's fewer-colors edge-coloring
// tier: a deterministic LOCAL algorithm whose measured palette approaches
// Δ + o(Δ) on the benched graph families, trading extra rounds for colors —
// the successor-line tradeoff (Ghaffari–Kuhn–Maus–Uitto 1711.05469,
// Barenboim–Elkin–Maimon 1610.06759) the ROADMAP names "quality as a
// request knob".
//
// Algorithm: start from the Panconesi–Rizzi (2Δ−1)-edge-coloring, then run a
// fixed schedule of compaction sweeps over the color classes of the line
// graph. In a proper edge coloring every color class is a matching, so the
// whole class k can act simultaneously; a sweep walks k from 2Δ−1 down to 2
// and spends four rounds per class:
//
//  1. every vertex broadcasts its incident colors, so both endpoints of
//     every edge know the colors in use one step away;
//  2. each class-k edge that has no color free at both endpoints picks the
//     smallest color a held at exactly one endpoint and asks the edge
//     holding a to vacate it — naming a concrete target color b < k that is
//     free at both of that edge's endpoints (a length-2 Kempe move);
//  3. the asked edge's far endpoint arbitrates the requests it received
//     (smallest target color wins, one move per vertex side) and replies;
//     accepted vacates recolor a → b on both sides;
//  4. the class-k edges recolor to the smallest color below k now free at
//     both endpoints (first-fit descent), or keep k when none is.
//
// Descent alone reproduces first-fit stability — the fixed point the base
// coloring is already in — so the vacate step is what pushes the palette
// below it: one sweep leaves every edge e at a color at most degL(e)+1 =
// deg(u)+deg(v)−1, and repeated sweeps compact the measured palette toward
// Δ on the experiment families.
//
// Guarantees (exact, enforced by tests):
//   - the result is a legal edge coloring (the matching argument above keeps
//     the properness invariant through every step);
//   - every edge (u,v) ends with color ≤ deg(u)+deg(v)−1, so the palette is
//     bounded by PaletteBound(g) = max over edges of deg(u)+deg(v)−1 ≤ 2Δ−1;
//   - the round cost is exactly Rounds(n, Δ), engine-independent.
package fewcolors

import (
	"sort"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/panconesi"
	"repro/internal/wire"
)

// sweeps is the number of full descent passes after the base coloring. One
// pass establishes the degL(e)+1 per-edge bound; the second compacts the
// tail of edges whose first-fit slot opened up only after later classes
// moved. Further passes were measured to change nothing on the exp families.
const sweeps = 2

// Process returns the per-vertex body of the fewer-colors edge coloring.
// The returned colors are per-port (both endpoints agree on every edge);
// merge with graph.MergePortColors.
func Process() func(dist.Process) []int {
	return vertex
}

// Algo bundles Process for dist.RunAlgo, which the service runs. It has no
// flat pass, so under the Compiled engine it runs as a one-shot Lockstep
// run.
func Algo() dist.Algo[[]int] {
	return dist.Algo[[]int]{Vertex: vertex}
}

func vertex(v dist.Process) []int {
	delta := v.MaxDegree()
	colors := panconesi.EdgeColorStep(v, nil, delta) // returns at once at Δ=0
	top := 2*delta - 1
	for s := 0; s < sweeps; s++ {
		for k := top; k >= 2; k-- {
			vacateClass(v, colors, k)
			descendClass(v, colors, k)
		}
	}
	return colors
}

// vacateClass runs the three negotiation rounds of one class step: broadcast
// incident colors, send vacate requests on behalf of the class-k edges, and
// arbitrate + apply the accepted moves. Every move recolors one edge from a
// color a (blocking a class-k neighbor) to a color b < k free at both of its
// endpoints, so properness is preserved move by move; the receiving endpoint
// accepts at most one move per incident color, and an edge whose both
// endpoints requested on it simultaneously is left untouched.
func vacateClass(v dist.Process, colors []int, k int) {
	deg := len(colors)

	// Round 1: broadcast incident colors; decode each neighbor's before the
	// next round recycles the buffers.
	var w wire.Writer
	w.Ints(colors)
	nbrColors := make([][]int, deg)
	for p, msg := range v.Broadcast(w.Bytes()) {
		r := wire.NewReader(msg)
		nbrColors[p] = r.Ints()
		if r.Err() != nil {
			panic("fewcolors: bad color broadcast: " + r.Err().Error())
		}
	}

	// Round 2: the owner endpoint of each class-k edge requests a vacate.
	// Both endpoints scan colors ascending with the same shared data: a color
	// free at both means plain descent will succeed (no request); the first
	// color held at exactly one endpoint is the move target, and the holder
	// becomes the owner. reqPort/reqTo remember this vertex's own request so
	// the reply can be applied and incoming traffic on that port ignored.
	reqPort, reqTo := -1, 0
	var out [][]byte
	if kp := portOf(colors, k); kp >= 0 {
		mine, theirs := colorSet(colors, k), colorSet(nbrColors[kp], k)
		for a := 1; a < k; a++ {
			if !mine[a] && !theirs[a] {
				break // descent will take a; no move needed
			}
			if mine[a] && theirs[a] {
				continue
			}
			if mine[a] { // this endpoint holds a and must free it
				q := portOf(colors, a)
				if b := freeBelow(k, colorSet(colors, k), colorSet(nbrColors[q], k)); b > 0 {
					var rw wire.Writer
					rw.Int(a)
					rw.Int(b)
					out = make([][]byte, deg)
					out[q] = rw.Bytes()
					reqPort, reqTo = q, b
				}
			}
			break
		}
	}
	in := v.Round(out)

	// Round 3: arbitrate incoming requests and reply. Requests are granted
	// in (target, current, port) order, one target color per vertex, never
	// into a color this vertex holds or has itself requested.
	type req struct{ b, a, p int }
	var reqs []req
	for p, msg := range in {
		if msg == nil || p == reqPort {
			continue
		}
		r := wire.NewReader(msg)
		a, b := r.Int(), r.Int()
		if r.Err() != nil {
			panic("fewcolors: bad vacate request: " + r.Err().Error())
		}
		if a == colors[p] && b < k {
			reqs = append(reqs, req{b, a, p})
		}
	}
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].b != reqs[j].b {
			return reqs[i].b < reqs[j].b
		}
		if reqs[i].a != reqs[j].a {
			return reqs[i].a < reqs[j].a
		}
		return reqs[i].p < reqs[j].p
	})
	taken := colorSet(colors, k)
	if reqPort >= 0 && reqTo < k {
		taken[reqTo] = true
	}
	var replies [][]byte
	for _, rq := range reqs {
		if taken[rq.b] {
			continue
		}
		taken[rq.b] = true
		if replies == nil {
			replies = make([][]byte, deg)
		}
		var rw wire.Writer
		rw.Int(rq.b)
		replies[rq.p] = rw.Bytes()
		colors[rq.p] = rq.b
	}
	acks := v.Round(replies)

	// Apply this vertex's own request if the far endpoint granted it.
	if reqPort >= 0 && acks[reqPort] != nil {
		r := wire.NewReader(acks[reqPort])
		if b := r.Int(); r.Err() == nil && b == reqTo {
			colors[reqPort] = reqTo
		}
	}
}

// portOf returns the port colored c, or -1. Colors are distinct per vertex
// in a proper coloring, so the first match is the only one.
func portOf(colors []int, c int) int {
	for p, pc := range colors {
		if pc == c {
			return p
		}
	}
	return -1
}

// colorSet returns membership of the colors below k as a bitmap.
func colorSet(colors []int, k int) []bool {
	set := make([]bool, k)
	for _, c := range colors {
		if c > 0 && c < k {
			set[c] = true
		}
	}
	return set
}

// freeBelow returns the smallest color in 1..k-1 absent from both sets,
// or 0 when every color below k is taken on one side or the other.
func freeBelow(k int, a, b []bool) int {
	for c := 1; c < k; c++ {
		if !a[c] && !b[c] {
			return c
		}
	}
	return 0
}

// descendClass runs one descent step: every edge currently colored k (a
// matching) recolors to the smallest color below k free at both endpoints,
// or keeps k when none is. One communication round; both endpoints compute
// the same new color from the exchanged used-sets, so the per-port views
// stay consistent without a confirmation round.
func descendClass(v dist.Process, colors []int, k int) {
	deg := len(colors)
	out := make([][]byte, deg)
	for p := 0; p < deg; p++ {
		if colors[p] == k {
			var w wire.Writer
			w.Ints(otherColors(colors, p))
			out[p] = w.Bytes()
		}
	}
	in := v.Round(out)
	for p := 0; p < deg; p++ {
		if colors[p] != k || in[p] == nil {
			continue
		}
		r := wire.NewReader(in[p])
		theirs := r.Ints()
		if r.Err() != nil {
			panic("fewcolors: bad used-set message: " + r.Err().Error())
		}
		used := make([]bool, k) // used[c] for c in 1..k-1
		mark := func(cs []int) {
			for _, c := range cs {
				if c > 0 && c < k {
					used[c] = true
				}
			}
		}
		mark(otherColors(colors, p))
		mark(theirs)
		for c := 1; c < k; c++ {
			if !used[c] {
				colors[p] = c
				break
			}
		}
	}
}

// otherColors lists the colors of every port except p.
func otherColors(colors []int, p int) []int {
	out := make([]int, 0, len(colors)-1)
	for q, c := range colors {
		if q != p {
			out = append(out, c)
		}
	}
	return out
}

// Rounds returns the exact round cost for an n-vertex graph of maximum
// degree delta: the Panconesi–Rizzi base plus four rounds per (sweep, class).
func Rounds(n, delta int) int {
	if delta == 0 {
		return 0
	}
	return panconesi.Rounds(n, delta) + sweeps*4*(2*delta-2)
}

// PaletteBound returns the palette bound for the instance: the maximum over
// edges (u,v) of deg(u)+deg(v)−1 — the first-fit bound on the line graph,
// never above the base's 2Δ−1 and strictly below it whenever no two
// maximum-degree vertices are adjacent.
func PaletteBound(g *graph.Graph) int {
	bound := 0
	for _, e := range g.Edges() {
		if d := g.Deg(e.U) + g.Deg(e.V) - 1; d > bound {
			bound = d
		}
	}
	return bound
}
