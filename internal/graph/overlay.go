package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// EdgeSetFingerprint is an order-independent content hash of (n, edge set):
// the XOR-fold of a per-edge hash. Unlike Fingerprint — which hashes the CSR
// arrays and therefore must be recomputed from scratch after any change —
// the XOR structure makes it incrementally maintainable: inserting or
// deleting an edge toggles exactly one term, so an Overlay tracks the
// fingerprint of its evolving graph in O(1) per mutation. Two graphs on the
// default identifier assignment have equal EdgeSetFingerprints iff they have
// the same vertex count and edge set.
func (g *Graph) EdgeSetFingerprint() Fingerprint {
	f := edgeSetSeed(g.n)
	for _, e := range g.edges {
		f.xor(edgeHash(e))
	}
	return f
}

// edgeSetSeed is the fingerprint of the edgeless graph on n vertices; the
// vertex count is folded in so Path(3) and Path(4)-minus-an-edge differ.
func edgeSetSeed(n int) Fingerprint {
	var b [16]byte
	copy(b[:8], "edgeset0")
	binary.LittleEndian.PutUint64(b[8:], uint64(n))
	return Fingerprint(sha256.Sum256(b[:]))
}

// edgeHash is the per-edge term of the XOR-fold.
func edgeHash(e Edge) Fingerprint {
	var b [24]byte
	copy(b[:8], "edgeset1")
	binary.LittleEndian.PutUint64(b[8:], uint64(e.U))
	binary.LittleEndian.PutUint64(b[16:], uint64(e.V))
	return Fingerprint(sha256.Sum256(b[:]))
}

func (f *Fingerprint) xor(g Fingerprint) {
	for i := range f {
		f[i] ^= g[i]
	}
}

// Overlay is a mutable edge-churn layer over an immutable CSR Graph: the
// current graph is base minus the deleted base edges plus the inserted ones.
// It supports the queries an incremental recoloring pass needs — adjacency,
// degrees, Δ, edge membership — without rebuilding the CSR arrays, tracks
// the vertex count-invariant quantities (m, per-vertex degrees, Δ via a
// degree histogram, EdgeSetFingerprint) incrementally in O(1) amortized per
// mutation, and compacts back to a fresh CSR Graph on demand or when the
// churn layer outgrows the base.
//
// Every live edge has a stable int32 slot, so per-edge state can live in a
// slot-indexed slice instead of a map keyed by endpoints. A base edge's slot
// is its CSR edge id; an inserted edge takes a slot at or above base.M(),
// from a free list or appended (SlotLimit bounds them); deleting an inserted
// edge frees its slot, and re-inserting a deleted base edge gets its base
// slot back. Compact renumbers: the new base's edge ids are the new slots,
// and it returns the old slot of each. No query or mutation touches a map:
// the deleted base edges are a bitset over base edge ids and the inserted
// edges are per-vertex slices sorted by neighbor.
//
// The vertex set is fixed: mutations add and remove edges only. Overlay
// requires the base graph to carry the default identifier assignment
// (ID(v) = v+1), so vertex-index order, identifier order, and the canonical
// lexicographic edge order all agree and survive compaction unchanged.
//
// An Overlay is not safe for concurrent use; callers (dynamic.Maintainer)
// serialize access.
type Overlay struct {
	base     *Graph
	removed  []uint64      // bit id set: base edge id is deleted
	nRemoved int           // set bits of removed
	ins      [][]Incidence // per-vertex inserted edges, sorted by Nbr
	nAdded   int           // inserted edges (each is in two ins lists)
	free     []int32       // slots of deleted inserted edges, for reuse
	limit    int32         // one past the largest slot handed out
	deg      []int32       // current degree per vertex
	degHist  []int32       // degHist[d] = #vertices of degree d
	maxDeg   int           // current Δ, tracked via degHist
	m        int           // current edge count
	fp       Fingerprint   // incremental EdgeSetFingerprint
}

// Incidence is one entry of a vertex's current adjacency: the neighbor and
// the slot of the edge to it.
type Incidence struct {
	Nbr, Slot int32
}

// NewOverlay returns an overlay over base with no pending mutations. It
// fails if base does not carry the default identifier assignment.
func NewOverlay(base *Graph) (*Overlay, error) {
	for v := 0; v < base.N(); v++ {
		if base.ID(v) != v+1 {
			return nil, fmt.Errorf("graph: overlay requires default ids, vertex %d has id %d", v, base.ID(v))
		}
	}
	o := &Overlay{
		ins:     make([][]Incidence, base.N()),
		deg:     make([]int32, base.N()),
		degHist: make([]int32, base.N()+1),
		maxDeg:  base.MaxDegree(),
		m:       base.M(),
		fp:      base.EdgeSetFingerprint(),
	}
	o.setBase(base)
	for v := range o.deg {
		o.deg[v] = int32(base.Deg(v))
		o.degHist[o.deg[v]]++
	}
	return o, nil
}

// setBase installs g as the base with an empty churn layer.
func (o *Overlay) setBase(g *Graph) {
	o.base = g
	o.removed = make([]uint64, (g.M()+63)/64)
	o.nRemoved = 0
	for v := range o.ins {
		o.ins[v] = o.ins[v][:0]
	}
	o.nAdded = 0
	o.free = o.free[:0]
	o.limit = int32(g.M())
}

// Base returns the CSR graph the overlay currently layers over (the last
// compaction point, not the mutated graph).
func (o *Overlay) Base() *Graph { return o.base }

// N returns the (fixed) vertex count.
func (o *Overlay) N() int { return o.base.N() }

// M returns the current edge count.
func (o *Overlay) M() int { return o.m }

// Deg returns the current degree of v.
func (o *Overlay) Deg(v int) int { return int(o.deg[v]) }

// MaxDegree returns Δ of the current graph, maintained incrementally.
func (o *Overlay) MaxDegree() int { return o.maxDeg }

// Fingerprint returns the EdgeSetFingerprint of the current graph,
// maintained in O(1) per mutation; it equals Materialize().EdgeSetFingerprint().
func (o *Overlay) Fingerprint() Fingerprint { return o.fp }

// Pending returns the size of the churn layer: the number of inserted plus
// deleted edges relative to the base.
func (o *Overlay) Pending() int { return o.nAdded + o.nRemoved }

// SlotLimit returns one past the largest slot handed out since the last
// compaction: every live slot is below it, so a slot-indexed slice of this
// length covers the current graph.
func (o *Overlay) SlotLimit() int { return int(o.limit) }

// HasEdge reports whether (u, v) is an edge of the current graph.
func (o *Overlay) HasEdge(u, v int) bool {
	_, ok := o.Slot(u, v)
	return ok
}

// Slot returns the slot of the edge (u, v) of the current graph, and false
// if there is no such edge.
func (o *Overlay) Slot(u, v int) (int32, bool) {
	if u == v || u < 0 || v < 0 || u >= o.N() || v >= o.N() {
		return 0, false
	}
	if id, ok := o.base.EdgeID(u, v); ok { // a base edge is never also inserted
		return int32(id), !o.isRemoved(int32(id))
	}
	a := o.ins[u]
	if i := searchNbr(a, int32(v)); i < len(a) && a[i].Nbr == int32(v) {
		return a[i].Slot, true
	}
	return 0, false
}

func (o *Overlay) isRemoved(id int32) bool { return o.removed[id>>6]&(1<<(id&63)) != 0 }

// searchNbr returns the first index of a whose neighbor is >= w.
func searchNbr(a []Incidence, w int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid].Nbr < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds the edge (u, v) to the current graph. Inserting an existing
// edge, a self-loop, or an out-of-range endpoint is an error; the overlay is
// unchanged on error.
func (o *Overlay) Insert(u, v int) error {
	if u == v {
		return fmt.Errorf("graph: overlay insert self-loop at %d", u)
	}
	if u < 0 || v < 0 || u >= o.N() || v >= o.N() {
		return fmt.Errorf("graph: overlay insert (%d,%d) out of range [0,%d)", u, v, o.N())
	}
	if o.HasEdge(u, v) {
		return fmt.Errorf("graph: overlay insert duplicate edge (%d,%d)", u, v)
	}
	e := canonical(u, v)
	if id, ok := o.base.EdgeID(e.U, e.V); ok {
		o.removed[id>>6] &^= 1 << (id & 63) // re-inserting a deleted base edge cancels out
		o.nRemoved--
	} else {
		slot := o.limit
		if k := len(o.free) - 1; k >= 0 {
			slot, o.free = o.free[k], o.free[:k]
		} else {
			o.limit++
		}
		o.insertAdj(e.U, Incidence{Nbr: int32(e.V), Slot: slot})
		o.insertAdj(e.V, Incidence{Nbr: int32(e.U), Slot: slot})
		o.nAdded++
	}
	o.bumpDeg(e.U, +1)
	o.bumpDeg(e.V, +1)
	o.m++
	o.fp.xor(edgeHash(e))
	return nil
}

// Delete removes the edge (u, v) from the current graph. Deleting a
// non-edge is an error; the overlay is unchanged on error.
func (o *Overlay) Delete(u, v int) error {
	slot, ok := o.Slot(u, v)
	if !ok {
		return fmt.Errorf("graph: overlay delete of non-edge (%d,%d)", u, v)
	}
	e := canonical(u, v)
	if int(slot) < o.base.M() {
		o.removed[slot>>6] |= 1 << (slot & 63)
		o.nRemoved++
	} else {
		o.removeAdj(e.U, int32(e.V)) // deleting an inserted edge cancels out
		o.removeAdj(e.V, int32(e.U))
		o.free = append(o.free, slot)
		o.nAdded--
	}
	o.bumpDeg(e.U, -1)
	o.bumpDeg(e.V, -1)
	o.m--
	o.fp.xor(edgeHash(e))
	return nil
}

// insertAdj places x into v's sorted inserted-edge list.
func (o *Overlay) insertAdj(v int, x Incidence) {
	a := o.ins[v]
	i := searchNbr(a, x.Nbr)
	a = append(a, Incidence{})
	copy(a[i+1:], a[i:])
	a[i] = x
	o.ins[v] = a
}

// removeAdj drops neighbor w from v's inserted-edge list.
func (o *Overlay) removeAdj(v int, w int32) {
	a := o.ins[v]
	i := searchNbr(a, w)
	o.ins[v] = append(a[:i], a[i+1:]...)
}

// bumpDeg moves v between degree-histogram buckets and tracks Δ: the max
// pointer rises with an insert in O(1) and walks down past emptied buckets
// after deletes, which amortizes to O(1) per mutation.
func (o *Overlay) bumpDeg(v int, delta int32) {
	o.degHist[o.deg[v]]--
	o.deg[v] += delta
	o.degHist[o.deg[v]]++
	if int(o.deg[v]) > o.maxDeg {
		o.maxDeg = int(o.deg[v])
	}
	for o.maxDeg > 0 && o.degHist[o.maxDeg] == 0 {
		o.maxDeg--
	}
}

// AppendIncident appends the current adjacency of v to buf in increasing
// neighbor order and returns the extended slice. It merges the base CSR run
// (skipping deleted edges) with the inserted-edge list.
func (o *Overlay) AppendIncident(v int, buf []Incidence) []Incidence {
	add := o.ins[v]
	eids := o.base.IncidentEdgeIDs(v)
	j := 0
	for i, w := range o.base.Neighbors(v) {
		for j < len(add) && add[j].Nbr < w {
			buf = append(buf, add[j])
			j++
		}
		if id := eids[i]; !o.isRemoved(id) {
			buf = append(buf, Incidence{Nbr: w, Slot: id})
		}
	}
	return append(buf, add[j:]...)
}

// AppendNeighbors appends the current neighbors of v to buf in increasing
// vertex order and returns the extended slice.
func (o *Overlay) AppendNeighbors(v int, buf []int32) []int32 {
	for _, x := range o.AppendIncident(v, nil) {
		buf = append(buf, x.Nbr)
	}
	return buf
}

// AppendEdges appends the current edges in canonical (lexicographic) order
// to edges, and their slots in the same order to slots, and returns both.
// Entry i of the result is the edge id Materialize would give it.
func (o *Overlay) AppendEdges(edges []Edge, slots []int32) ([]Edge, []int32) {
	var adj []Incidence
	for u := range o.N() {
		adj = o.AppendIncident(u, adj[:0])
		for _, x := range adj {
			if int(x.Nbr) > u {
				edges = append(edges, Edge{U: u, V: int(x.Nbr)})
				slots = append(slots, x.Slot)
			}
		}
	}
	return edges, slots
}

// Materialize builds the current graph as an immutable CSR Graph (default
// identifiers). With an empty churn layer it is the base itself; otherwise
// every call builds a fresh graph.
func (o *Overlay) Materialize() *Graph {
	if o.Pending() == 0 {
		return o.base
	}
	edges, _ := o.AppendEdges(make([]Edge, 0, o.m), nil)
	return fromSortedEdges(o.N(), edges)
}

// Compact installs the current graph as the new base and clears the churn
// layer; adjacency queries after a compaction read pure CSR again. The
// slots are renumbered to the new base's edge ids: it returns oldSlot, where
// oldSlot[id] is the slot the edge with new id had before.
func (o *Overlay) Compact() (oldSlot []int32) {
	edges, oldSlot := o.AppendEdges(make([]Edge, 0, o.m), make([]int32, 0, o.m))
	o.setBase(fromSortedEdges(o.N(), edges))
	return oldSlot
}
