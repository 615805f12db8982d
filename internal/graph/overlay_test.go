package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// mirror is the reference implementation an Overlay is checked against: a
// plain edge-set rebuilt into a Graph for every query.
type mirror struct {
	n     int
	edges map[Edge]struct{}
}

func (m *mirror) graph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(m.n)
	for e := range m.edges {
		if err := b.AddEdge(e.U, e.V); err != nil {
			t.Fatalf("mirror add %v: %v", e, err)
		}
	}
	return b.Build()
}

// TestOverlayAgainstMirror drives a random insert/delete stream through an
// Overlay and checks every tracked quantity — M, Deg, Δ, HasEdge, adjacency,
// fingerprint, materialization — against a from-scratch rebuild after every
// mutation.
func TestOverlayAgainstMirror(t *testing.T) {
	base := GNM(24, 40, 7)
	o, err := NewOverlay(base)
	if err != nil {
		t.Fatal(err)
	}
	m := &mirror{n: base.N(), edges: make(map[Edge]struct{})}
	for _, e := range base.Edges() {
		m.edges[e] = struct{}{}
	}
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 400; step++ {
		u, v := rng.Intn(base.N()), rng.Intn(base.N())
		if u == v {
			continue
		}
		e := canonical(u, v)
		if _, ok := m.edges[e]; ok {
			if err := o.Delete(u, v); err != nil {
				t.Fatalf("step %d: delete (%d,%d): %v", step, u, v, err)
			}
			delete(m.edges, e)
		} else {
			if err := o.Insert(u, v); err != nil {
				t.Fatalf("step %d: insert (%d,%d): %v", step, u, v, err)
			}
			m.edges[e] = struct{}{}
		}
		if step%16 == 0 && step > 0 && rng.Intn(3) == 0 {
			o.Compact()
		}
		want := m.graph(t)
		if o.M() != want.M() {
			t.Fatalf("step %d: M = %d, want %d", step, o.M(), want.M())
		}
		if o.MaxDegree() != want.MaxDegree() {
			t.Fatalf("step %d: Δ = %d, want %d", step, o.MaxDegree(), want.MaxDegree())
		}
		for x := 0; x < base.N(); x++ {
			if o.Deg(x) != want.Deg(x) {
				t.Fatalf("step %d: deg(%d) = %d, want %d", step, x, o.Deg(x), want.Deg(x))
			}
			got := o.AppendNeighbors(x, nil)
			wantN := want.Neighbors(x)
			if len(got) != len(wantN) {
				t.Fatalf("step %d: neighbors(%d) = %v, want %v", step, x, got, wantN)
			}
			for i := range got {
				if got[i] != wantN[i] {
					t.Fatalf("step %d: neighbors(%d) = %v, want %v", step, x, got, wantN)
				}
			}
		}
		if o.Fingerprint() != want.EdgeSetFingerprint() {
			t.Fatalf("step %d: incremental fingerprint diverged from edge-set hash", step)
		}
		mat := o.Materialize()
		if mat.Fingerprint() != want.Fingerprint() {
			t.Fatalf("step %d: materialized graph differs from mirror", step)
		}
	}
}

// TestOverlayErrors pins the rejection paths: duplicates, self-loops, range,
// deleting non-edges, and non-default identifier bases.
func TestOverlayErrors(t *testing.T) {
	base := Path(4) // edges (0,1)(1,2)(2,3)
	o, err := NewOverlay(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct{ u, v int }{{0, 0}, {-1, 2}, {0, 4}} {
		if err := o.Insert(bad.u, bad.v); err == nil {
			t.Fatalf("insert (%d,%d) succeeded, want error", bad.u, bad.v)
		}
	}
	if err := o.Insert(1, 0); err == nil {
		t.Fatal("inserting an existing base edge succeeded")
	}
	if err := o.Insert(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(2, 0); err == nil {
		t.Fatal("inserting an existing inserted edge succeeded")
	}
	if err := o.Delete(0, 3); err == nil {
		t.Fatal("deleting a non-edge succeeded")
	}

	perm := Path(3)
	if err := perm.SetIDs([]int{2, 1, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewOverlay(perm); err == nil {
		t.Fatal("NewOverlay accepted a permuted-id base")
	}
}

// TestOverlayCancellation: deleting an inserted edge and re-inserting a
// deleted base edge must both restore the original fingerprint exactly.
func TestOverlayCancellation(t *testing.T) {
	base := Cycle(8)
	o, err := NewOverlay(base)
	if err != nil {
		t.Fatal(err)
	}
	fp0 := o.Fingerprint()
	if err := o.Insert(0, 4); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(4, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(1, 0); err != nil {
		t.Fatal(err)
	}
	if o.Pending() != 0 {
		t.Fatalf("pending = %d after cancelling mutations, want 0", o.Pending())
	}
	if o.Fingerprint() != fp0 {
		t.Fatal("fingerprint did not return to the base value")
	}
	if o.Fingerprint() != base.EdgeSetFingerprint() {
		t.Fatal("fingerprint disagrees with base EdgeSetFingerprint")
	}
}

// Fuzz opcodes: each op is three bytes (code, a, b).
const (
	opToggle  = iota // insert (a, b) if absent, else delete it
	opRestore        // re-insert deleted base edge number a, if any
	opCompact        // compact the overlay
	opCodes
)

// mirrorOps encodes TestOverlayAgainstMirror's stream as fuzz ops: the same
// pairs from the same generator, and a compaction at the same steps.
func mirrorOps() []byte {
	rng := rand.New(rand.NewSource(11))
	var ops []byte
	for step := 0; step < 400; step++ {
		u, v := rng.Intn(24), rng.Intn(24)
		if u == v {
			continue
		}
		ops = append(ops, opToggle, byte(u), byte(v))
		if step%16 == 0 && step > 0 && rng.Intn(3) == 0 {
			ops = append(ops, opCompact, 0, 0)
		}
	}
	return ops
}

// FuzzOverlayMirror runs insert, delete, re-insert-of-deleted-base and
// Compact sequences through an Overlay and checks it against a map mirror
// after every op: M, Deg, Δ, HasEdge and Slot on every pair, Pending,
// Fingerprint, AppendNeighbors order and the canonical edge order against a
// rebuild. It checks the slot layout too: live slots are distinct and
// below SlotLimit, a base edge's slot is its base edge id, a deleted
// inserted edge's slot is reused before the limit grows, and Compact's
// oldSlot renumbering names each edge's slot from before the compaction.
// Run with `make fuzz-overlay` to explore beyond the seed corpus.
func FuzzOverlayMirror(f *testing.F) {
	f.Add(uint8(24), uint8(40), int64(7), mirrorOps())
	f.Add(uint8(6), uint8(6), int64(1), []byte{opToggle, 0, 1, opRestore, 0, 0, opToggle, 0, 5, opToggle, 0, 5, opToggle, 2, 3, opCompact, 0, 0, opToggle, 1, 4})
	f.Add(uint8(2), uint8(0), int64(3), []byte{opToggle, 0, 1, opToggle, 1, 0, opCompact, 0, 0, opToggle, 1, 1})
	f.Fuzz(func(t *testing.T, n, m uint8, seed int64, ops []byte) {
		if n < 2 || n > 32 || len(ops) > 3*512 {
			return
		}
		base := GNM(int(n), min(int(m), int(n)*(int(n)-1)/2), seed)
		o, err := NewOverlay(base)
		if err != nil {
			t.Fatal(err)
		}
		live := make(map[Edge]bool) // the mirror
		for _, e := range base.Edges() {
			live[e] = true
		}
		peak := 0 // most inserted edges live at once since the last compaction
		for i := 0; i+2 < len(ops); i += 3 {
			code, a, b := ops[i]%opCodes, int(ops[i+1])%int(n), int(ops[i+2])%int(n)
			switch code {
			case opToggle:
				e := canonical(a, b)
				if a == b {
					if o.Insert(a, b) == nil || o.Delete(a, b) == nil {
						t.Fatalf("op %d: self-loop (%d,%d) accepted", i/3, a, b)
					}
				} else if live[e] {
					if err := o.Delete(a, b); err != nil {
						t.Fatalf("op %d: delete %v: %v", i/3, e, err)
					}
					delete(live, e)
				} else {
					if err := o.Insert(a, b); err != nil {
						t.Fatalf("op %d: insert %v: %v", i/3, e, err)
					}
					live[e] = true
				}
			case opRestore:
				var gone []Edge
				for _, e := range o.Base().Edges() {
					if !live[e] {
						gone = append(gone, e)
					}
				}
				if len(gone) == 0 {
					continue
				}
				e := gone[int(ops[i+1])%len(gone)]
				if err := o.Insert(e.V, e.U); err != nil {
					t.Fatalf("op %d: re-insert %v: %v", i/3, e, err)
				}
				live[e] = true
				id, _ := o.Base().EdgeID(e.U, e.V)
				if s, ok := o.Slot(e.U, e.V); !ok || int(s) != id {
					t.Fatalf("op %d: re-inserted base edge %v has slot %d, want its base id %d", i/3, e, s, id)
				}
			case opCompact:
				edges, slots := o.AppendEdges(nil, nil)
				oldSlot := o.Compact()
				if !slices.Equal(oldSlot, slots) {
					t.Fatalf("op %d: Compact oldSlot %v, want the pre-compaction slots %v", i/3, oldSlot, slots)
				}
				if !slices.Equal(o.Base().Edges(), edges) {
					t.Fatalf("op %d: compacted base edges differ from the canonical order", i/3)
				}
				peak = 0
			}
			checkOverlay(t, i/3, o, live, &peak, []int{a, b})
		}
		all := make([]int, n)
		for v := range all {
			all[v] = v
		}
		checkOverlay(t, len(ops)/3, o, live, &peak, all)
	})
}

// checkOverlay compares o with the mirror edge set live, probing Slot and
// HasEdge on every pair with one endpoint in rows.
func checkOverlay(t *testing.T, op int, o *Overlay, live map[Edge]bool, peak *int, rows []int) {
	t.Helper()
	b := NewBuilder(o.N())
	for e := range live {
		_ = b.AddEdge(e.U, e.V)
	}
	want := b.Build()
	if o.M() != want.M() || o.MaxDegree() != want.MaxDegree() {
		t.Fatalf("op %d: M = %d, Δ = %d, want %d, %d", op, o.M(), o.MaxDegree(), want.M(), want.MaxDegree())
	}
	if o.Fingerprint() != want.EdgeSetFingerprint() {
		t.Fatalf("op %d: incremental fingerprint diverged from the edge-set hash", op)
	}
	if o.Materialize().Fingerprint() != want.Fingerprint() {
		t.Fatalf("op %d: materialized graph differs from the mirror", op)
	}
	added, removed := 0, 0
	for e := range live {
		if !o.Base().HasEdge(e.U, e.V) {
			added++
		}
	}
	for _, e := range o.Base().Edges() {
		if !live[e] {
			removed++
		}
	}
	if o.Pending() != added+removed {
		t.Fatalf("op %d: Pending = %d, want %d inserted + %d deleted", op, o.Pending(), added, removed)
	}
	*peak = max(*peak, added)
	if o.SlotLimit() != o.Base().M()+*peak {
		t.Fatalf("op %d: SlotLimit = %d, want base %d + peak inserted %d: a freed slot was not reused", op, o.SlotLimit(), o.Base().M(), *peak)
	}
	edges, slots := o.AppendEdges(nil, nil)
	if !slices.Equal(edges, want.Edges()) {
		t.Fatalf("op %d: canonical edge order %v, want %v", op, edges, want.Edges())
	}
	owner := make(map[int32]Edge)
	for k, e := range edges {
		s := slots[k]
		if prev, dup := owner[s]; dup {
			t.Fatalf("op %d: edges %v and %v share slot %d", op, prev, e, s)
		}
		owner[s] = e
		if s < 0 || int(s) >= o.SlotLimit() {
			t.Fatalf("op %d: edge %v has slot %d outside [0,%d)", op, e, s, o.SlotLimit())
		}
		if id, ok := o.Base().EdgeID(e.U, e.V); ok != (int(s) < o.Base().M()) || ok && id != int(s) {
			t.Fatalf("op %d: edge %v has slot %d; base id %d, %v", op, e, s, id, ok)
		}
	}
	for u := 0; u < o.N(); u++ {
		if o.Deg(u) != want.Deg(u) {
			t.Fatalf("op %d: deg(%d) = %d, want %d", op, u, o.Deg(u), want.Deg(u))
		}
		if got := o.AppendNeighbors(u, nil); !slices.Equal(got, want.Neighbors(u)) {
			t.Fatalf("op %d: neighbors(%d) = %v, want %v", op, u, got, want.Neighbors(u))
		}
		for _, x := range o.AppendIncident(u, nil) {
			if owner[x.Slot] != canonical(u, int(x.Nbr)) {
				t.Fatalf("op %d: incidence (%d,%d) carries slot %d of %v", op, u, x.Nbr, x.Slot, owner[x.Slot])
			}
		}
	}
	for _, u := range rows {
		for v := 0; v < o.N(); v++ {
			s, ok := o.Slot(u, v)
			if ok != live[canonical(u, v)] || o.HasEdge(u, v) != ok || ok && owner[s] != canonical(u, v) {
				t.Fatalf("op %d: Slot(%d,%d) = %d, %v; live %v", op, u, v, s, ok, live[canonical(u, v)])
			}
		}
	}
}
