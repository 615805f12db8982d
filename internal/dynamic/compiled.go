package dynamic

import (
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/wire"
)

// repairBundle pairs repairAlgo with its compiled form, so repair runs opt
// into the Compiled engine and degrade gracefully under the others.
func repairBundle(sub *graph.Graph, forbidden [][]int) dist.Algo[[]int] {
	return dist.Algo[[]int]{
		Vertex:   repairAlgo(sub, forbidden),
		Compiled: &repairCompiled{forbidden: forbidden},
	}
}

// repairCompiled executes repairAlgo's round structure as flat passes over
// the CSR arrays. The per-vertex form broadcasts its full local view — one
// (farEndpoint, color) pair per incident edge — every round it participates,
// and neighbors act on the snapshot they last received. The compiled form
// keeps one `sent` array per directed edge slot holding exactly those
// snapshots: a vertex's send phase copies its live colors into its slots,
// and every read of remote state goes through `sent`, never the live array,
// reproducing the synchronous visibility (and therefore the decision rounds,
// message sizes, and Stats) of the scheduled run byte for byte.
//
// The decide phase rests on the frontier invariant. Adjacency is sorted
// (graph.Build's CSR layout, pinned by TestCSRInvariants), so the edges
// lexicographically below the owned edge (v,u), v < u, are exactly v's
// ports below u's port at v, plus u's ports below v's port at u. Edges
// are decided in that order at both endpoints, so a vertex's decided ports
// — live or as last broadcast — always form a prefix of its adjacency. Two
// lazily advanced pointers track the prefixes: live[v], the first port of v
// whose live color is 0, and snap[u], the first port of u still undecided in
// u's last broadcast. A vertex tries only port live[v], decides it only when
// it owns it and snap[u] has reached v's slot, and takes the mex once per
// edge — so a run costs O(rounds·active·Δ + m·Δ), not a rescan of every
// undecided edge's neighborhood every round.
//
// Like repairAlgo, it requires the default identifier assignment, so
// identifier order and index order agree.
type repairCompiled struct {
	forbidden [][]int
}

func (rc *repairCompiled) RunCompiled(g *graph.Graph, env dist.CompiledEnv, out [][]int) (dist.Stats, error) {
	n := g.N()
	off, rev := g.Slots()
	m2 := int(off[n])
	col := make([]int, m2)    // live colors, indexed off[v]+port
	sent := make([]int32, m2) // colors as of each vertex's last broadcast
	nbrLen := make([]int, n)  // constant part of each vertex's message size
	for v := 0; v < n; v++ {
		sum := 0
		for _, u := range g.Neighbors(v) {
			sum += wire.IntLen(int(u))
		}
		nbrLen[v] = sum
	}
	msgLen := make([]int, n)
	live := make([]int, n) // first port of v whose live color is 0
	snap := make([]int, n) // first port of v undecided in its last broadcast
	dirty := make([]bool, n)
	active := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		dirty[v] = true // the initial view must be announced before halting
		active = append(active, int32(v))
	}
	var used colorSet
	t := env.NewTally()
	for len(active) > 0 {
		if err := t.StartRound(len(active)); err != nil {
			return t.Stats, err
		}
		// Send: publish the live state of every dirty participant (a clean
		// participant re-broadcasts its unchanged last message).
		for _, vv := range active {
			v := int(vv)
			base := int(off[v])
			deg := g.Deg(v)
			if dirty[v] {
				ln := nbrLen[v]
				for s := base; s < base+deg; s++ {
					sent[s] = int32(col[s])
					ln += wire.IntLen(col[s])
				}
				msgLen[v] = ln
			}
			t.Messages(deg, msgLen[v])
		}
		// Receive, learn, decide: live own state, snapshot remote state.
		for _, vv := range active {
			v := int(vv)
			dirty[v] = false
			base := int(off[v])
			deg := g.Deg(v)
			nbrs := g.Neighbors(v)
			// Learn decisions of edges owned by the far endpoint: by sorted
			// adjacency, the ports to neighbors below v.
			for q := live[v]; q < deg && int(nbrs[q]) < v; q++ {
				slot := base + q
				if col[slot] != 0 {
					continue
				}
				if c := sent[rev[slot]]; c != 0 {
					col[slot] = int(c)
					dirty[v] = true
				}
			}
			// Decide owned edges in port order while the frontier is quiet.
			for ; live[v] < deg; live[v]++ {
				q := live[v]
				slot := base + q
				if col[slot] != 0 {
					continue
				}
				u := int(nbrs[q])
				if u < v {
					break // owned by u: learned, never decided here
				}
				ub := int(off[u])
				at := int(rev[slot]) // v's slot at u
				for ub+snap[u] < at && sent[ub+snap[u]] != 0 {
					snap[u]++
				}
				if ub+snap[u] < at {
					break // a smaller edge at u is still undecided
				}
				used.reset()
				for _, c := range rc.forbidden[g.IncidentEdgeIDs(v)[q]] {
					used.add(c)
				}
				for s := base; s < slot; s++ {
					used.add(col[s])
				}
				for s := ub; s < at; s++ {
					used.add(int(sent[s]))
				}
				col[slot] = used.mex()
				dirty[v] = true
			}
		}
		next := active[:0]
		for _, vv := range active {
			if v := int(vv); live[v] < g.Deg(v) || dirty[v] {
				next = append(next, vv)
			}
		}
		active = next
	}
	graph.SlotPortColors(g, col, out)
	return t.Stats, nil
}
