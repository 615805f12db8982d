package baseline

import (
	"math"
	"sort"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Compiled forms of the greedy baselines (dist.CompiledAlgo): the same
// ID-priority colorings computed as flat passes over the CSR arrays, with
// Stats reconstructed through dist.Tally so Outputs and Stats stay
// byte-identical to the per-vertex forms under every engine. The service
// runs them for requests that ask for greedy, and GreedyVertexColoring and
// GreedyEdgeColoring reach them under the Compiled engine. The other flat
// passes are Panconesi–Rizzi (panconesi.EdgeColorAlgo), Procedure
// Legal-Color (core.LegalColorAlgo) and the dynamic repair; the remaining
// pipelines carry none and run under the Compiled engine as one-shot
// Lockstep runs.

// GreedyVertexAlgo bundles GreedyVertexProcess with its compiled form.
func GreedyVertexAlgo() dist.Algo[int] {
	return dist.Algo[int]{Vertex: GreedyVertexProcess, Compiled: greedyVertexCompiled{}}
}

// GreedyEdgeAlgo bundles GreedyEdgeProcess with its compiled form.
func GreedyEdgeAlgo() dist.Algo[[]int] {
	return dist.Algo[[]int]{Vertex: GreedyEdgeProcess, Compiled: greedyEdgeCompiled{}}
}

// greedyVertexCompiled computes the ID-priority vertex coloring in one sweep
// over the vertices in increasing-ID order. The round structure of the
// per-vertex form is closed-form: vertex v broadcasts its color in round
// t(v) = 1 + max t(u) over smaller-ID neighbors (1 with none), and calls
// Round exactly t(v) times. Stats are replayed round by round through the
// Tally so a tripped round cap reproduces the scheduler's partial accounting
// exactly.
type greedyVertexCompiled struct{}

func (greedyVertexCompiled) RunCompiled(g *graph.Graph, env dist.CompiledEnv, out []int) (dist.Stats, error) {
	n := g.N()
	byID := make([]int32, n)
	for v := range byID {
		byID[v] = int32(v)
	}
	sort.Slice(byID, func(i, j int) bool { return g.ID(int(byID[i])) < g.ID(int(byID[j])) })
	decideRound := make([]int32, n)
	used := make([]bool, g.MaxDegree()+2)
	touched := make([]int, 0, g.MaxDegree()+1)
	maxRound := int32(0)
	for _, vv := range byID {
		v := int(vv)
		id := g.ID(v)
		dr := int32(1)
		for _, u := range g.Neighbors(v) {
			if g.ID(int(u)) >= id {
				continue
			}
			if r := decideRound[u] + 1; r > dr {
				dr = r
			}
			if c := out[u]; !used[c] {
				used[c] = true
				touched = append(touched, c)
			}
		}
		c := 1
		for used[c] {
			c++
		}
		out[v] = c
		decideRound[v] = dr
		if dr > maxRound {
			maxRound = dr
		}
		for _, c := range touched {
			used[c] = false
		}
		touched = touched[:0]
	}
	// Replay the rounds: in round r every vertex with t(v) >= r is still
	// participating, and those with t(v) == r broadcast their color.
	deciders := make([][]int32, maxRound+1)
	for v := 0; v < n; v++ {
		deciders[decideRound[v]] = append(deciders[decideRound[v]], int32(v))
	}
	t := env.NewTally()
	participating := n
	for r := int32(1); r <= maxRound; r++ {
		if err := t.StartRound(participating); err != nil {
			return t.Stats, err
		}
		for _, vv := range deciders[r] {
			t.Messages(g.Deg(int(vv)), wire.IntLen(out[int(vv)]))
		}
		participating -= len(deciders[r])
	}
	return t.Stats, nil
}

// greedyEdgeCompiled simulates the two-phase round structure of
// greedyEdgeVertex over flat per-directed-edge arrays. Per round, every
// participating vertex first composes its messages from round-start state
// (announcements of colors decided last round, or ready/used reports to the
// owners of its undecided non-owned edges), then processes the staged
// messages in vertex and port order with live own state and snapshot remote
// state — exactly the visibility the synchronous schedulers give the
// per-vertex form. Remote used-sets are never materialized: usedAt stores
// the round each color entered a vertex's used set, so "their used set as
// reported" is the stamp test usedAt < round, and report sizes come from
// incrementally maintained counts and varint byte totals.
type greedyEdgeCompiled struct{}

const (
	stagedReport      uint8 = 1 // non-owner status report, not ready
	stagedReportReady uint8 = 2 // non-owner status report, side ready
	stagedAnnounce    uint8 = 3 // owner announcing a decided color
)

const unsetRound = int32(math.MaxInt32)

func (greedyEdgeCompiled) RunCompiled(g *graph.Graph, env dist.CompiledEnv, out [][]int) (dist.Stats, error) {
	n := g.N()
	off, rev := g.Slots() // directed edge slots: slot = off[v] + port
	m2 := int(off[n])
	colors := make([]int, m2)
	pending := make([]int32, m2)
	keyLo := make([]int32, m2)
	keyHi := make([]int32, m2)
	ownerOf := make([]bool, m2)
	for v := 0; v < n; v++ {
		id := g.ID(v)
		for p, u := range g.Neighbors(v) {
			slot := int(off[v]) + p
			nid := g.ID(int(u))
			lo, hi := id, nid
			if lo > hi {
				lo, hi = hi, lo
			}
			keyLo[slot], keyHi[slot] = int32(lo), int32(hi)
			ownerOf[slot] = id < nid
		}
	}
	palette := 2*g.MaxDegree() + 2 // greedy edge needs at most 2Δ-1
	usedAt := make([]int32, n*palette)
	for i := range usedAt {
		usedAt[i] = unsetRound
	}
	usedCount := make([]int, n)
	usedBytes := make([]int, n)
	remaining := make([]int, n)
	pendCount := make([]int, n)
	active := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		remaining[v] = g.Deg(v)
		if remaining[v] > 0 {
			active = append(active, int32(v))
		}
	}
	// markUsed records color c entering v's used set in the given round.
	markUsed := func(v, c int, round int32) {
		if i := v*palette + c; usedAt[i] == unsetRound {
			usedAt[i] = round
			usedCount[v]++
			usedBytes[v] += wire.IntLen(c)
		}
	}
	// sideReady reports whether every edge at v with a smaller key than port
	// p's edge is colored (in v's current view).
	sideReady := func(v, p int) bool {
		base := int(off[v])
		slot := base + p
		for q, deg := 0, g.Deg(v); q < deg; q++ {
			qs := base + q
			if q != p && colors[qs] == 0 &&
				(keyLo[qs] < keyLo[slot] || (keyLo[qs] == keyLo[slot] && keyHi[qs] < keyHi[slot])) {
				return false
			}
		}
		return true
	}
	// Staged messages, one slot per directed edge; a slot is a live message
	// of the current round iff sRound matches it.
	sKind := make([]uint8, m2)
	sVal := make([]int32, m2)
	sRound := make([]int32, m2)
	t := env.NewTally()
	for round := int32(1); len(active) > 0; round++ {
		if err := t.StartRound(len(active)); err != nil {
			return t.Stats, err
		}
		// Compose: round-start state only (colors and used sets mutate in
		// the process phase below; pending is cleared here, as the
		// per-vertex form clears it while composing the announcement).
		for _, vv := range active {
			v := int(vv)
			base := int(off[v])
			for p, deg := 0, g.Deg(v); p < deg; p++ {
				slot := base + p
				switch {
				case pending[slot] != 0:
					c := pending[slot]
					pending[slot] = 0
					pendCount[v]--
					sKind[slot], sVal[slot], sRound[slot] = stagedAnnounce, c, round
					t.Message(wire.IntLen(int(c)))
				case colors[slot] == 0 && !ownerOf[slot]:
					kind := stagedReport
					if sideReady(v, p) {
						kind = stagedReportReady
					}
					sKind[slot], sRound[slot] = kind, round
					t.Message(1 + wire.UintLen(uint64(usedCount[v])) + usedBytes[v])
				}
			}
		}
		// Process: vertex order, port order; own state live, remote state
		// from the staged snapshots.
		for _, vv := range active {
			v := int(vv)
			base := int(off[v])
			for p, deg := 0, g.Deg(v); p < deg; p++ {
				slot := base + p
				if colors[slot] != 0 {
					continue
				}
				uslot := int(rev[slot])
				if sRound[uslot] != round {
					continue // no message from the far end this round
				}
				if ownerOf[slot] {
					if sKind[uslot] != stagedReportReady || !sideReady(v, p) {
						continue
					}
					u := int(g.Neighbors(v)[p])
					ub, vb := u*palette, v*palette
					c := 1
					for usedAt[vb+c] != unsetRound || usedAt[ub+c] < round {
						c++
					}
					colors[slot] = c
					markUsed(v, c, round)
					pending[slot] = int32(c)
					pendCount[v]++
					remaining[v]--
				} else if sKind[uslot] == stagedAnnounce {
					c := int(sVal[uslot])
					colors[slot] = c
					markUsed(v, c, round)
					remaining[v]--
				}
			}
		}
		next := active[:0]
		for _, vv := range active {
			if v := int(vv); remaining[v] > 0 || pendCount[v] > 0 {
				next = append(next, vv)
			}
		}
		active = next
	}
	graph.SlotPortColors(g, colors, out)
	return t.Stats, nil
}
