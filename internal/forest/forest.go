// Package forest implements rooted-forest machinery used by the
// Panconesi–Rizzi (2Δ−1)-edge-coloring [24]: decomposition of an
// ID-oriented graph into edge-disjoint rooted forests, and the
// Cole–Vishkin-style deterministic 3-coloring of all forests in parallel in
// O(log* n) rounds (bit reduction to 6 colors, then shift-down to 3).
//
// All routines here are per-vertex subroutines meant to be called from
// inside a dist vertex function; many logical forests share each physical
// edge-disjointly, so running them in parallel costs no extra rounds.
// Per-vertex state is proportional to the vertex degree, not to the global
// number of forests (which the §5 recursion makes as large as p^r·Λ).
package forest

import (
	"math/bits"
	"slices"

	"repro/internal/dist"
	"repro/internal/wire"
)

// NoForest marks a port that belongs to no forest.
const NoForest = 0

// Membership describes, for one vertex, how its ports map onto the forests
// it belongs to. Forests carry global integer ids (agreed by both endpoints
// of every edge); a vertex's parent in forest f is reached through its
// unique out-port labeled f, and its children are the in-ports labeled f.
// Per-forest state is indexed by slot, the forest's position in Forests.
type Membership struct {
	Forests   []int // sorted global ids of forests present at this vertex
	PortLabel []int // per port: forest id, or NoForest
	parent    []int // per slot: port to the parent, or -1 at a root
	slot      []int // per port: slot of its forest, or -1
}

// Slot returns the index of forest fid in Forests, or -1 if the vertex has
// no edge in that forest.
func (m *Membership) Slot(fid int) int {
	if i, ok := slices.BinarySearch(m.Forests, fid); ok {
		return i
	}
	return -1
}

// ParentPortOf returns the port leading to this vertex's parent in forest
// fid, or -1 if the vertex is a root of (or absent from) that forest.
func (m *Membership) ParentPortOf(fid int) int {
	if s := m.Slot(fid); s >= 0 {
		return m.parent[s]
	}
	return -1
}

// AssignLabels runs the one-round forest decomposition: every vertex labels
// its out-edges (ports whose neighbor has a smaller identifier, restricted
// to active ports) with distinct labels 1..outdeg, sends each label across
// its edge, and learns the labels of its in-edges. The result partitions the
// active edges into at most degBound rooted forests (ids 1..degBound): each
// vertex has at most one out-edge per label, and following out-edges
// strictly decreases identifiers, so every label class is a forest rooted at
// local ID minima.
//
// active may be nil (all ports active). Costs exactly one round.
func AssignLabels(v dist.Process, active []bool, degBound int) Membership {
	classOf := make([]int, v.Deg())
	for port := range classOf {
		if active == nil || active[port] {
			classOf[port] = 1
		}
	}
	return AssignLabelsClasses(v, classOf, degBound)
}

// AssignLabelsClasses is the multi-class generalization used by the edge
// variant of Procedure Legal-Color (§5): ports are partitioned into
// edge-disjoint classes (classOf[port] >= 1, 0 = inactive), each class
// having degree at most degBound at every vertex. Each class is decomposed
// into degBound forests exactly as AssignLabels does, with the forest of
// class c and within-class label ℓ getting the global id (c−1)·degBound+ℓ.
// All classes share the single labeling round; both endpoints of an edge
// agree on its class, so they agree on its forest id.
func AssignLabelsClasses(v dist.Process, classOf []int, degBound int) Membership {
	deg := v.Deg()
	m := Membership{PortLabel: make([]int, deg), slot: make([]int, deg)}
	// Out-edges take the next free label of their class; counts holds one
	// (class, labels used) pair per class seen so far.
	type count struct{ class, n int }
	var counts []count
	size := 0
	for port := 0; port < deg; port++ {
		c := classOf[port]
		if c == 0 || v.NeighborID(port) > v.ID() {
			continue
		}
		// Out-edge: the neighbor is the parent.
		i := 0
		for i < len(counts) && counts[i].class != c {
			i++
		}
		if i == len(counts) {
			counts = append(counts, count{class: c})
		}
		counts[i].n++
		if counts[i].n > degBound {
			panic("forest: class out-degree exceeds degBound")
		}
		m.PortLabel[port] = (c-1)*degBound + counts[i].n
		size += wire.IntLen(m.PortLabel[port])
	}
	out := make([][]byte, deg)
	var w wire.Writer
	w.Grow(size)
	for port, fid := range m.PortLabel {
		if fid != NoForest {
			start := w.Len()
			w.Int(fid)
			out[port] = w.Bytes()[start:w.Len():w.Len()]
		}
	}
	in := v.Round(out)
	for port := 0; port < deg; port++ {
		if classOf[port] == 0 {
			continue
		}
		if v.NeighborID(port) > v.ID() { // in-edge: the child told us its label
			fid, err := wire.DecodeInt(in[port])
			if err != nil {
				panic("forest: bad label message: " + err.Error())
			}
			m.PortLabel[port] = fid
		}
	}
	m.Forests = make([]int, 0, deg)
	for _, fid := range m.PortLabel {
		if fid != NoForest {
			m.Forests = append(m.Forests, fid)
		}
	}
	slices.Sort(m.Forests)
	m.Forests = slices.Compact(m.Forests)
	m.parent = make([]int, len(m.Forests))
	for s := range m.parent {
		m.parent[s] = -1
	}
	for port, fid := range m.PortLabel {
		m.slot[port] = -1
		if fid == NoForest {
			continue
		}
		m.slot[port] = m.Slot(fid)
		if v.NeighborID(port) < v.ID() {
			m.parent[m.slot[port]] = port
		}
	}
	return m
}

// CVRounds returns the number of bit-reduction rounds of the Cole–Vishkin
// phase for identifier space {1..n}; every vertex computes the same value
// locally so all forests stay in lockstep.
func CVRounds(n int) int {
	rounds := 0
	k := n
	for k > 6 {
		k = nextPalette(k)
		rounds++
	}
	return rounds
}

// nextPalette maps palette size k to 2*ceil(log2 k), the palette after one
// bit-reduction round.
func nextPalette(k int) int {
	return 2 * ceilLog2(k)
}

func ceilLog2(k int) int {
	if k <= 1 {
		return 1
	}
	return bits.Len(uint(k - 1))
}

// ShiftDownIterations is the number of (shift-down, recolor) iterations that
// reduce 6 colors to 3.
const ShiftDownIterations = 3

// TotalRounds returns the full round cost of ThreeColor for n identifiers:
// the bit-reduction phase plus two rounds per shift-down iteration.
func TotalRounds(n int) int { return CVRounds(n) + 2*ShiftDownIterations }

// ThreeColor 3-colors the vertices of every forest simultaneously: the
// returned slice holds, per forest slot of m (see Membership.Slot), this
// vertex's color in that forest, in {1,2,3}. Costs exactly
// TotalRounds(v.N()) rounds for every vertex (lockstep), independent of the
// forests' shapes and count.
func ThreeColor(v dist.Process, m Membership) []int {
	colors := make([]int, len(m.Forests)) // 0-based during reduction
	for s := range colors {
		colors[s] = v.ID() - 1
	}
	out := make([][]byte, v.Deg())
	all := make([]int, v.Deg())
	// Phase 1: bit reduction. Every vertex sends, on every forest port, its
	// current color in that forest; children combine with the parent color.
	for r := 0; r < CVRounds(v.N()); r++ {
		exchangeAllColors(v, &m, colors, out, all)
		for s, p := range m.parent {
			if p >= 0 {
				colors[s] = cvStep(colors[s], all[p])
			} else {
				colors[s] = colors[s] & 1 // root: (index 0, own bit 0)
			}
		}
	}
	// Normalize to 1..6.
	for s := range colors {
		colors[s]++
	}
	// Phase 2: three (shift-down, recolor) iterations remove colors 6, 5, 4.
	used := make([]uint8, len(colors)) // per slot: bit c set = color c taken
	for x := 6; x >= 4; x-- {
		// Shift-down: every non-root adopts its parent's color; roots pick a
		// color in {1,2} different from their own, keeping siblings
		// monochromatic and the coloring proper.
		exchangeAllColors(v, &m, colors, out, all)
		for s, p := range m.parent {
			if p >= 0 {
				colors[s] = all[p]
			} else if colors[s] == 1 {
				colors[s] = 2
			} else {
				colors[s] = 1
			}
		}
		// Recolor class x: its members form an independent set in each
		// forest; each picks the smallest color in {1,2,3} unused by its
		// parent and (shared) child color.
		exchangeAllColors(v, &m, colors, out, all)
		clear(used)
		for port, s := range m.slot {
			if s >= 0 && all[port] >= 1 && all[port] <= 3 {
				used[s] |= 1 << all[port]
			}
		}
		for s := range colors {
			if colors[s] != x {
				continue
			}
			for c := 1; c <= 3; c++ {
				if used[s]&(1<<c) == 0 {
					colors[s] = c
					break
				}
			}
		}
	}
	return colors
}

// cvStep computes the Cole–Vishkin bit-reduction color: the index of the
// lowest bit where own and parent differ, paired with own's bit there.
func cvStep(own, parent int) int {
	diff := own ^ parent
	i := bits.TrailingZeros(uint(diff))
	return 2*i + (own>>i)&1
}

// exchangeAllColors sends, on every forest port, this vertex's color in that
// port's forest, and stores the neighbor's color per port in res (-1 where
// absent). The out headers are reused across rounds; each round's messages
// live in one fresh arena, since delivered bytes are never reused.
func exchangeAllColors(v dist.Process, m *Membership, colors []int, out [][]byte, res []int) {
	size := 0
	for _, s := range m.slot {
		if s >= 0 {
			size += wire.IntLen(colors[s])
		}
	}
	var w wire.Writer
	w.Grow(size)
	for port, s := range m.slot {
		if s >= 0 {
			start := w.Len()
			w.Int(colors[s])
			out[port] = w.Bytes()[start:w.Len():w.Len()]
		}
	}
	in := v.Round(out)
	for port, s := range m.slot {
		res[port] = -1
		if s < 0 || in[port] == nil {
			continue
		}
		c, err := wire.DecodeInt(in[port])
		if err != nil {
			panic("forest: bad color message: " + err.Error())
		}
		res[port] = c
	}
}

// ThreeColorFlat is ThreeColor run at every vertex of an n-vertex network in
// one pass, for the flat (dist.CompiledAlgo) forms. The forests are given
// flat: one node per (vertex, forest) pair, with id[x] the identifier of
// node x's vertex and parent[x] its parent node (-1 at a root), and one
// entry per forest port, near[i] the node that sends on it and far[i] the
// node at its other end. It returns every node's color in {1,2,3} — the
// value ThreeColor returns in that forest's slot — and accounts through t
// the TotalRounds(n) rounds, each with n arrivals, and every port's message,
// exactly as n vertices running ThreeColor would.
func ThreeColorFlat(n int, id []int, parent, near, far []int32, t *dist.Tally) ([]int, error) {
	colors := make([]int, len(id)) // 0-based during reduction
	for x := range colors {
		colors[x] = id[x] - 1
	}
	next := make([]int, len(id))
	// exchange accounts one round in which every forest port carries its
	// node's current color.
	exchange := func() error {
		if err := t.StartRound(n); err != nil {
			return err
		}
		for _, x := range near {
			t.Message(wire.IntLen(colors[x]))
		}
		return nil
	}
	for r := 0; r < CVRounds(n); r++ {
		if err := exchange(); err != nil {
			return nil, err
		}
		for x, p := range parent {
			if p >= 0 {
				next[x] = cvStep(colors[x], colors[p])
			} else {
				next[x] = colors[x] & 1
			}
		}
		colors, next = next, colors
	}
	for x := range colors {
		colors[x]++
	}
	used := make([]uint8, len(id))
	for c := 6; c >= 4; c-- {
		if err := exchange(); err != nil {
			return nil, err
		}
		for x, p := range parent {
			if p >= 0 {
				next[x] = colors[p]
			} else if colors[x] == 1 {
				next[x] = 2
			} else {
				next[x] = 1
			}
		}
		colors, next = next, colors
		if err := exchange(); err != nil {
			return nil, err
		}
		clear(used)
		for i, x := range near {
			if fc := colors[far[i]]; fc >= 1 && fc <= 3 {
				used[x] |= 1 << fc
			}
		}
		for x := range colors {
			if colors[x] != c {
				continue
			}
			for k := 1; k <= 3; k++ {
				if used[x]&(1<<k) == 0 {
					colors[x] = k
					break
				}
			}
		}
	}
	return colors, nil
}
