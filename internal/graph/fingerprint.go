package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Fingerprint is a canonical content hash of a graph: two graphs have equal
// fingerprints iff they have the same vertex count, the same adjacency
// structure, and the same identifier assignment. It is the cache key the
// coloring service builds its deterministic result cache on — the runtime is
// deterministic, so "same fingerprint + same algorithm parameters" implies
// byte-identical outputs.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Fingerprint hashes the graph's canonical form: the vertex count, the CSR
// offset and neighbor arrays, and the identifier assignment. The edge-id and
// reverse-slot arrays are deterministic functions of the edge set (Builder
// derives them in one canonical pass), so hashing the adjacency alone pins
// them too. The hash is domain-separated and length-prefixed per section, so
// distinct graphs cannot collide by boundary shifting.
func (g *Graph) Fingerprint() Fingerprint {
	h := sha256.New()
	var scratch [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(scratch[:], x)
		h.Write(scratch[:])
	}
	words32 := func(tag uint64, xs []int32) {
		word(tag)
		word(uint64(len(xs)))
		for _, x := range xs {
			word(uint64(uint32(x)))
		}
	}
	word(uint64(g.n))
	words32('o', g.off)
	words32('a', g.nbrs)
	word('i')
	word(uint64(len(g.ids)))
	for _, id := range g.ids {
		word(uint64(id))
	}
	var f Fingerprint
	h.Sum(f[:0])
	return f
}
