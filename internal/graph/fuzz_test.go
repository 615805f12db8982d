package graph

import (
	"testing"
)

// FuzzBuilder drives Builder with an arbitrary byte-encoded edge stream
// (each pair of bytes is an edge attempt on a small vertex set) and checks
// the structural invariants every consumer of the CSR layout relies on:
// duplicate/self-loop rejection, sorted adjacency, consistent edge ids,
// offsets that are the degree prefix sums, reverse slots pairing the two
// slots of every edge, and EdgeID round-trips. Run with `go test -fuzz
// FuzzBuilder ./internal/graph` to explore beyond the seed corpus.
func FuzzBuilder(f *testing.F) {
	f.Add(1, []byte{})
	f.Add(5, []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 0})
	f.Add(8, []byte{0, 1, 0, 1, 3, 3, 7, 0, 250, 1})
	f.Add(16, []byte{9, 4, 4, 9, 1, 14, 0, 15, 8, 8, 2, 3, 3, 2, 5, 6})
	f.Fuzz(func(t *testing.T, n int, stream []byte) {
		if n < 0 || n > 64 {
			return
		}
		b := NewBuilder(n)
		type edge struct{ u, v int }
		want := map[edge]bool{}
		for i := 0; i+1 < len(stream); i += 2 {
			u, v := int(stream[i]), int(stream[i+1])
			added := b.TryAddEdge(u, v)
			ok := u != v && u < n && v < n
			if u > v {
				u, v = v, u
			}
			if ok && want[edge{u, v}] {
				ok = false // duplicate
			}
			if added != ok {
				t.Fatalf("TryAddEdge(%d,%d) = %v, want %v", stream[i], stream[i+1], added, ok)
			}
			if added {
				want[edge{u, v}] = true
			}
		}
		g := b.Build()
		if g.N() != n || g.M() != len(want) {
			t.Fatalf("built graph n=%d m=%d, want n=%d m=%d", g.N(), g.M(), n, len(want))
		}
		off, rev := g.Slots()
		if len(off) != n+1 || off[0] != 0 || len(rev) != int(off[n]) {
			t.Fatalf("slot tables: %d offsets, %d reverse slots for n=%d", len(off), len(rev), n)
		}
		degSum := 0
		for v := 0; v < n; v++ {
			nbrs := g.Neighbors(v)
			eids := g.IncidentEdgeIDs(v)
			degSum += len(nbrs)
			if int(off[v+1]) != degSum {
				t.Fatalf("off[%d] = %d, want the degree prefix sum %d", v+1, off[v+1], degSum)
			}
			for i, u := range nbrs {
				if i > 0 && nbrs[i-1] >= u {
					t.Fatalf("vertex %d: adjacency not strictly increasing", v)
				}
				if !want[edge{min(v, int(u)), max(v, int(u))}] {
					t.Fatalf("vertex %d: phantom edge to %d", v, u)
				}
				s := off[v] + int32(i)
				if r := rev[s]; r < off[u] || r >= off[u+1] || rev[r] != s {
					t.Fatalf("vertex %d: reverse slot %d of slot %d is not its pair at %d", v, r, s, u)
				}
				if back := g.Neighbors(int(u)); back[rev[s]-off[u]] != int32(v) {
					t.Fatalf("vertex %d: reverse slot at %d wrong", v, u)
				}
				if id, ok := g.EdgeID(v, int(u)); !ok || int32(id) != eids[i] {
					t.Fatalf("EdgeID(%d,%d) = %d,%v, want %d", v, u, id, ok, eids[i])
				}
			}
		}
		if degSum != 2*g.M() {
			t.Fatalf("degree sum %d != 2m", degSum)
		}
	})
}
