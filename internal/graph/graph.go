// Package graph provides the graph substrate for the reproduction of
// Barenboim & Elkin, "Distributed Deterministic Edge Coloring using Bounded
// Neighborhood Independence" (PODC 2011).
//
// It contains undirected simple graphs with stable edge identifiers,
// generators for every graph family the paper mentions (line graphs,
// r-hypergraph line graphs, bounded-growth graphs, the Figure-1 family),
// exact and approximate computation of the neighborhood-independence
// invariant I(G), coloring validators, and orientation utilities.
//
// Vertices are indexed 0..N-1 internally. Each vertex additionally carries a
// distinct identifier in {1..n} (the "Id" of the LOCAL model); by default
// Id(v) = v+1, and identifiers can be permuted to probe ID-dependence of
// algorithms.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Edge is an undirected edge with canonical endpoint order U < V.
type Edge struct {
	U, V int
}

// Graph is an immutable undirected simple graph.
//
// Adjacency is stored in CSR (compressed sparse row) form: one flat
// neighbor array sliced per vertex by an offset table, with parallel flat
// arrays for incident edge ids and reverse slots. Port p of vertex v is slot
// off[v]+p of every per-slot array, and the reverse slot of slot s is the
// slot of the same edge at its far endpoint. The flat layout keeps the whole
// adjacency in three contiguous allocations (cache-friendly for the
// simulator's per-round delivery sweeps and for the flat passes' per-slot
// arrays) and lets reverse slots be computed once at build time instead of
// rediscovered by every run; Slots exposes the layout.
//
// The zero value is the empty graph with no vertices. Use Builder to
// construct non-trivial graphs.
type Graph struct {
	n      int
	off    []int32 // len n+1; vertex v owns slots off[v]..off[v+1]
	nbrs   []int32 // flat neighbor indices, increasing within each vertex
	eids   []int32 // eids[s] is the edge id of the slot-s adjacency entry
	rev    []int32 // rev[s] is the slot of slot s's edge at its far endpoint
	maxDeg int     // cached Δ(G)
	edges  []Edge  // edges[id] with U < V
	ids    []int   // distinct vertex identifiers, ids[v] in {1..n}
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n     int
	edges []Edge
	seen  map[Edge]struct{}
}

// NewBuilder returns a builder for a graph on n vertices (indexed 0..n-1).
func NewBuilder(n int) *Builder {
	return &Builder{
		n:    n,
		seen: make(map[Edge]struct{}),
	}
}

// AddEdge records the undirected edge (u, v). Self-loops and duplicate edges
// are rejected with an error; the builder is unchanged on error.
func (b *Builder) AddEdge(u, v int) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	e := canonical(u, v)
	if _, dup := b.seen[e]; dup {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	b.seen[e] = struct{}{}
	b.edges = append(b.edges, e)
	return nil
}

// TryAddEdge is AddEdge that reports whether the edge was added instead of
// returning an error. It is convenient for randomized generators that simply
// retry on duplicates.
func (b *Builder) TryAddEdge(u, v int) bool {
	return b.AddEdge(u, v) == nil
}

// HasEdge reports whether the edge (u, v) has been added.
func (b *Builder) HasEdge(u, v int) bool {
	_, ok := b.seen[canonical(u, v)]
	return ok
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build produces the immutable graph. The builder remains usable.
func (b *Builder) Build() *Graph {
	g := &Graph{
		n:     b.n,
		edges: make([]Edge, len(b.edges)),
		ids:   make([]int, b.n),
	}
	copy(g.edges, b.edges)
	// Sort edges for stable, input-order-independent edge ids.
	sort.Slice(g.edges, func(i, j int) bool {
		if g.edges[i].U != g.edges[j].U {
			return g.edges[i].U < g.edges[j].U
		}
		return g.edges[i].V < g.edges[j].V
	})
	// CSR offsets from the degree histogram.
	g.off = make([]int32, b.n+1)
	for _, e := range g.edges {
		g.off[e.U+1]++
		g.off[e.V+1]++
	}
	for v := 0; v < b.n; v++ {
		g.off[v+1] += g.off[v]
		if d := int(g.off[v+1] - g.off[v]); d > g.maxDeg {
			g.maxDeg = d
		}
	}
	slots := g.off[b.n]
	g.nbrs = make([]int32, slots)
	g.eids = make([]int32, slots)
	g.rev = make([]int32, slots)
	// Fill both endpoints of each edge in one pass, recording reverse slots
	// as the two slots are paired. Adjacency comes out sorted by neighbor
	// index: for a vertex w, the smaller neighbors arrive from edges (x,w)
	// and the larger from edges (w,y); lexicographic edge order emits every
	// (x,w) before every (w,y) and keeps each group in increasing neighbor
	// order, so no post-sort is needed (pinned by TestCSRInvariants).
	cur := make([]int32, b.n)
	copy(cur, g.off[:b.n])
	for id, e := range g.edges {
		su, sv := cur[e.U], cur[e.V]
		cur[e.U]++
		cur[e.V]++
		g.nbrs[su] = int32(e.V)
		g.nbrs[sv] = int32(e.U)
		g.eids[su] = int32(id)
		g.eids[sv] = int32(id)
		g.rev[su] = sv
		g.rev[sv] = su
	}
	for v := range g.ids {
		g.ids[v] = v + 1
	}
	return g
}

func canonical(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Deg returns the degree of vertex v.
func (g *Graph) Deg(v int) int { return int(g.off[v+1] - g.off[v]) }

// MaxDegree returns Δ(G), cached at build time.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// Neighbors returns the neighbor indices of v in increasing order.
// The returned slice must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.nbrs[g.off[v]:g.off[v+1]] }

// IncidentEdgeIDs returns, parallel to Neighbors(v), the edge ids of the
// edges from v to each neighbor. The returned slice must not be modified.
func (g *Graph) IncidentEdgeIDs(v int) []int32 { return g.eids[g.off[v]:g.off[v+1]] }

// Slots returns the CSR slot layout shared by every per-slot array: port p
// of vertex v is slot off[v]+p (len(off) == N()+1 on a built graph), and
// rev[s] is the slot of the same edge at the far endpoint, so
// rev[rev[s]] == s and the far endpoint u = Neighbors(v)[p] occupies port
// rev[s]-off[u] in its own list. Computed at build time, so message
// delivery and the flat passes translate ports in O(1) without per-edge
// searches or per-run tables. The returned slices must not be modified.
func (g *Graph) Slots() (off, rev []int32) { return g.off, g.rev }

// Edges returns the canonical edge list; edges[id] has U < V.
// The returned slice must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// EdgeAt returns the edge with the given id.
func (g *Graph) EdgeAt(id int) Edge { return g.edges[id] }

// EdgeID returns the id of edge (u,v) and whether it exists.
func (g *Graph) EdgeID(u, v int) (int, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return 0, false
	}
	if g.Deg(u) > g.Deg(v) {
		u, v = v, u
	}
	a := g.Neighbors(u)
	i := sort.Search(len(a), func(i int) bool { return a[i] >= int32(v) })
	if i < len(a) && a[i] == int32(v) {
		return int(g.IncidentEdgeIDs(u)[i]), true
	}
	return 0, false
}

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.EdgeID(u, v)
	return ok
}

// ID returns the distinct identifier of vertex v (1-based).
func (g *Graph) ID(v int) int { return g.ids[v] }

// IDs returns a copy of the identifier assignment.
func (g *Graph) IDs() []int {
	out := make([]int, len(g.ids))
	copy(out, g.ids)
	return out
}

// SetIDs installs a custom identifier assignment. The ids must be a
// permutation of {1..n}; otherwise an error is returned and the graph is
// unchanged.
func (g *Graph) SetIDs(ids []int) error {
	if len(ids) != g.n {
		return fmt.Errorf("graph: got %d ids for %d vertices", len(ids), g.n)
	}
	seen := make([]bool, g.n+1)
	for _, id := range ids {
		if id < 1 || id > g.n || seen[id] {
			return errors.New("graph: ids must be a permutation of {1..n}")
		}
		seen[id] = true
	}
	copy(g.ids, ids)
	return nil
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	return &Graph{
		n:      g.n,
		off:    append([]int32(nil), g.off...),
		nbrs:   append([]int32(nil), g.nbrs...),
		eids:   append([]int32(nil), g.eids...),
		rev:    append([]int32(nil), g.rev...),
		maxDeg: g.maxDeg,
		edges:  append([]Edge(nil), g.edges...),
		ids:    append([]int(nil), g.ids...),
	}
}

// InducedSubgraph returns the subgraph induced by the vertex set keep
// (as a membership mask of length N), along with the mapping from new vertex
// indices to original ones. Vertex identifiers are inherited by rank so they
// remain a permutation of {1..n'}.
func (g *Graph) InducedSubgraph(keep []bool) (*Graph, []int) {
	if len(keep) != g.n {
		panic("graph: keep mask has wrong length")
	}
	old2new := make([]int, g.n)
	var new2old []int
	for v := 0; v < g.n; v++ {
		if keep[v] {
			old2new[v] = len(new2old)
			new2old = append(new2old, v)
		} else {
			old2new[v] = -1
		}
	}
	b := NewBuilder(len(new2old))
	for _, e := range g.edges {
		if keep[e.U] && keep[e.V] {
			_ = b.AddEdge(old2new[e.U], old2new[e.V])
		}
	}
	sub := b.Build()
	// Inherit identifier order: rank the original ids of kept vertices.
	type vi struct{ id, v int }
	ranked := make([]vi, len(new2old))
	for i, ov := range new2old {
		ranked[i] = vi{id: g.ids[ov], v: i}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].id < ranked[j].id })
	ids := make([]int, len(new2old))
	for rank, x := range ranked {
		ids[x.v] = rank + 1
	}
	if err := sub.SetIDs(ids); err != nil {
		panic("graph: internal error inheriting ids: " + err.Error())
	}
	return sub, new2old
}

// EdgeSubgraph returns the subgraph of g containing exactly the edges for
// which keepEdge[id] is true, on the same vertex set (vertices keep their
// identifiers).
func (g *Graph) EdgeSubgraph(keepEdge []bool) *Graph {
	if len(keepEdge) != len(g.edges) {
		panic("graph: keepEdge mask has wrong length")
	}
	b := NewBuilder(g.n)
	for id, e := range g.edges {
		if keepEdge[id] {
			_ = b.AddEdge(e.U, e.V)
		}
	}
	sub := b.Build()
	if err := sub.SetIDs(g.IDs()); err != nil {
		panic("graph: internal error inheriting ids: " + err.Error())
	}
	return sub
}

// LineGraph returns L(G): one vertex per edge of g, with two vertices
// adjacent iff the corresponding edges of g share an endpoint (Lemma 5.1
// context). The i-th vertex of L(G) corresponds to the edge with id i.
func (g *Graph) LineGraph() *Graph {
	b := NewBuilder(len(g.edges))
	for v := 0; v < g.n; v++ {
		ids := g.IncidentEdgeIDs(v)
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				// Two incident edges may share both endpoints only in
				// multigraphs, which Builder forbids, so TryAddEdge
				// duplicates arise solely from triangle edges seen from
				// both shared endpoints.
				b.TryAddEdge(int(ids[i]), int(ids[j]))
			}
		}
	}
	return b.Build()
}

// Degrees returns the degree sequence.
func (g *Graph) Degrees() []int {
	out := make([]int, g.n)
	for v := range out {
		out[v] = g.Deg(v)
	}
	return out
}

// String implements fmt.Stringer with a compact summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d Δ=%d}", g.n, len(g.edges), g.MaxDegree())
}
