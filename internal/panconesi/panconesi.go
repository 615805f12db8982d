// Package panconesi implements the Panconesi–Rizzi deterministic
// (2Δ−1)-edge-coloring [24], which the paper uses both as the prior
// state-of-the-art baseline (Tables 1 and 2: O(Δ) + log* n rounds) and as
// the bottom-of-recursion subroutine of the §5 edge-coloring variant of
// Procedure Legal-Color.
//
// Algorithm: decompose the (sub)graph into degBound edge-disjoint rooted
// forests by labeling out-edges of the ID orientation (1 round); 3-color the
// vertices of every forest in parallel with Cole–Vishkin (O(log* n) rounds);
// then, for each forest ℓ and each forest-color j, let every vertex u with
// color j in forest ℓ assign greedy colors to all of its child edges in ℓ,
// avoiding the colors already used at either endpoint. Vertices with color j
// form an independent set in forest ℓ and child edges of distinct such
// vertices share no endpoint, so all assignments in a stage are conflict
// free; each edge sees at most 2·degBound−2 forbidden colors, so the palette
// {1..2·degBound−1} always suffices. Total: O(degBound) + O(log* n) rounds.
//
// A vertex sits out (dist.Process.Idle) every stage in which it has no
// uncolored label-ℓ edge to report or to color, so once its edges are colored
// it idles through the rest of the schedule in one call; the round count and
// every message are those of the full schedule.
//
// The multi-class form colors many edge-disjoint subgraphs ("classes") at
// once, each with its own palette {1..2·degBound−1}; classes proceed in
// lockstep through the same stages, so the round cost does not grow with the
// number of classes — exactly the property the recursion leaf of §5 needs.
//
// EdgeColorAlgo bundles the single-class form with a flat pass (flat.go)
// that the Compiled engine runs instead of one coroutine per vertex, with
// byte-identical Outputs and Stats. The multi-class form has no flat pass.
package panconesi

import (
	"fmt"
	"slices"

	"repro/internal/dist"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/wire"
)

// stages is the number of forest-color stages per forest (3-coloring).
const stages = 3

// Rounds returns the exact round cost of EdgeColorStep/EdgeColorMulti for an
// n-vertex network with the given degree bound: 1 labeling round, the forest
// 3-coloring, and 2 rounds per (within-class forest, color) stage. At
// degBound 0 no class can hold an edge, so no round is spent.
func Rounds(n, degBound int) int {
	if degBound == 0 {
		return 0
	}
	return 1 + forest.TotalRounds(n) + 2*stages*degBound
}

// EdgeColorStep computes a legal (2·degBound−1)-edge-coloring of the
// subgraph formed by the active ports (nil = all ports). degBound must be a
// degree bound of that subgraph shared by all vertices. It returns the color
// of each port (0 on inactive ports); both endpoints of an edge return the
// same color for it. Every vertex spends exactly Rounds(v.N(), degBound)
// communication rounds.
func EdgeColorStep(v dist.Process, active []bool, degBound int) []int {
	classOf := make([]int, v.Deg())
	for port := range classOf {
		if active == nil || active[port] {
			classOf[port] = 1
		}
	}
	return EdgeColorMulti(v, classOf, degBound)
}

// EdgeColorMulti colors every class subgraph with its own palette
// {1..2·degBound−1} simultaneously: classOf[port] >= 1 assigns each edge to
// a class (0 = uncolored/ignored), both endpoints agreeing; every class must
// have degree ≤ degBound at every vertex.
func EdgeColorMulti(v dist.Process, classOf []int, degBound int) []int {
	deg := v.Deg()
	if degBound == 0 {
		return make([]int, deg) // no class can hold an edge: nothing to color
	}
	m := forest.AssignLabelsClasses(v, classOf, degBound)
	st := leaf{
		v:        v,
		m:        m,
		fcolors:  forest.ThreeColor(v, m),
		degBound: degBound,
		width:    2 * degBound,
		colors:   make([]int, deg),
		out:      make([][]byte, deg),
		out2:     make([][]byte, deg),
		classes:  make([]int, 0, deg),
		colored:  make([]int, 0, deg),
	}
	for _, c := range classOf {
		if c != 0 {
			st.classes = append(st.classes, c)
		}
	}
	slices.Sort(st.classes)
	st.classes = slices.Compact(st.classes)
	st.parent = make([]int, len(st.classes))
	st.used = make([]bool, len(st.classes)*st.width)
	st.childUsed = make([]bool, st.width)
	// Stage s = (ℓ−1)·stages + (j−1) runs in schedule order; a vertex idles
	// through each run of stages in which it has nothing to send or read.
	total := stages * degBound
	done := 0 // stages already spent, worked or idled
	for s := st.nextWork(0); s < total; s = st.nextWork(done) {
		v.Idle(2 * (s - done))
		st.stage(s/stages+1, s%stages+1)
		done = s + 1
	}
	v.Idle(2 * (total - done))
	return st.colors
}

// nextWork returns the first stage s >= from (numbered as in
// EdgeColorMulti) in which this vertex has work, or stages·degBound if it
// has none left. A vertex has work in stage (ℓ, j) if it has an uncolored
// label-ℓ parent edge (it reports its used set and waits for the parent's
// color), or an uncolored label-ℓ child edge in a forest where its own color
// is j (it colors the edge). Otherwise it sends nothing and ignores what it
// receives in both rounds of the stage, so idling through them changes no
// output, message or Stats field. Colors change only in stages the vertex
// works, so the answer holds until the next one.
func (st *leaf) nextWork(from int) int {
	next := stages * st.degBound
	for port, fid := range st.m.PortLabel {
		if fid == forest.NoForest || st.colors[port] != 0 {
			continue
		}
		first := (fid - 1) % st.degBound * stages // label ℓ's first stage
		s := first + st.fcolors[st.m.Slot(fid)] - 1
		if st.m.ParentPortOf(fid) == port {
			if s = max(first, from); s >= first+stages {
				continue
			}
		}
		if s >= from && s < next {
			next = s
		}
	}
	return next
}

// leaf is one vertex's Panconesi–Rizzi state. Every per-class and per-port
// table is a slice allocated once per run; only each round's message arena
// is allocated per round.
type leaf struct {
	v               dist.Process
	m               forest.Membership
	fcolors         []int  // per forest slot: the forest 3-coloring
	classes         []int  // sorted classes with at least one local port
	parent          []int  // per class: port to the parent in the stage's forest, or -1
	degBound, width int    // width = 2·degBound: palette plus the unused color 0
	used            []bool // class k's used colors: used[k·width : (k+1)·width]
	childUsed       []bool // scratch: a child's reported used set
	colors          []int  // per port: the output coloring
	out, out2       [][]byte
	colored         []int // scratch: ports colored in the current stage
}

// usedOf returns class k's used-color bitmap.
func (st *leaf) usedOf(k int) []bool { return st.used[k*st.width : (k+1)*st.width] }

// stage performs one (within-class label ℓ, forest-color j) stage across
// all classes: children report their class-local used sets upward; parents
// whose color in the (class, ℓ) forest is j greedily color child edges.
func (st *leaf) stage(l, j int) {
	for k, c := range st.classes {
		st.parent[k] = st.m.ParentPortOf((c-1)*st.degBound + l)
	}
	// Round 1: report used sets on uncolored parent edges of label ℓ.
	clear(st.out)
	size := 0
	for k, p := range st.parent {
		if p >= 0 && st.colors[p] == 0 {
			size += usedSetLen(st.usedOf(k))
		}
	}
	var w wire.Writer
	w.Grow(size)
	for k, p := range st.parent {
		if p >= 0 && st.colors[p] == 0 {
			start := w.Len()
			appendUsedSet(&w, st.usedOf(k))
			st.out[p] = w.Bytes()[start:w.Len():w.Len()]
		}
	}
	in := st.v.Round(st.out)
	// Round 2: parents with color j in the (class, ℓ) forest assign colors,
	// port by port in ascending order (classes have disjoint used sets, so
	// this is the per-class order too).
	st.colored = st.colored[:0]
	for port, fid := range st.m.PortLabel {
		if fid == forest.NoForest || in[port] == nil || (fid-1)%st.degBound+1 != l ||
			st.fcolors[st.m.Slot(fid)] != j {
			continue
		}
		k, _ := slices.BinarySearch(st.classes, (fid-1)/st.degBound+1)
		u := st.usedOf(k)
		cc := st.firstFree(u, in[port])
		st.colors[port] = cc
		u[cc] = true
		st.colored = append(st.colored, port)
	}
	clear(st.out2)
	size = 0
	for _, port := range st.colored {
		size += wire.IntLen(st.colors[port])
	}
	w = wire.Writer{}
	w.Grow(size)
	for _, port := range st.colored {
		start := w.Len()
		w.Int(st.colors[port])
		st.out2[port] = w.Bytes()[start:w.Len():w.Len()]
	}
	in2 := st.v.Round(st.out2)
	// Record colors our parents picked for our parent edges.
	for k, p := range st.parent {
		if p >= 0 && in2[p] != nil {
			c, err := wire.DecodeInt(in2[p])
			if err != nil {
				panic("panconesi: bad color message: " + err.Error())
			}
			st.colors[p] = c
			st.usedOf(k)[st.inPalette(c)] = true
		}
	}
}

// inPalette returns c if it is a palette color {1..2·degBound−1} and panics
// otherwise: a color outside the palette means a malformed message or a
// class whose degree exceeds degBound.
func (st *leaf) inPalette(c int) int {
	if c < 1 || c >= st.width {
		panic(fmt.Sprintf("panconesi: color %d outside the palette {1..%d}", c, st.width-1))
	}
	return c
}

// firstFree returns the smallest color free in both used and the used set
// encoded in msg (as appendUsedSet writes it).
func (st *leaf) firstFree(used []bool, msg []byte) int {
	child := st.childUsed
	clear(child)
	r := wire.NewReader(msg)
	for n := r.Uint(); n > 0 && r.Err() == nil; n-- {
		if c := r.Int(); r.Err() == nil {
			child[st.inPalette(c)] = true
		}
	}
	if r.Err() != nil {
		panic("panconesi: bad used-set message: " + r.Err().Error())
	}
	for c := 1; c < st.width; c++ {
		if !used[c] && !child[c] {
			return c
		}
	}
	panic(fmt.Sprintf("panconesi: palette {1..%d} exhausted", st.width-1))
}

// usedSetLen returns the encoded size of appendUsedSet(u).
func usedSetLen(u []bool) int {
	n, size := 0, 0
	for c, in := range u {
		if in {
			n++
			size += wire.IntLen(c)
		}
	}
	return wire.UintLen(uint64(n)) + size
}

// appendUsedSet encodes the colors set in u as a wire Ints message, in
// ascending order: the contents are a pure function of the set.
func appendUsedSet(w *wire.Writer, u []bool) {
	n := 0
	for _, in := range u {
		if in {
			n++
		}
	}
	w.Uint(uint64(n))
	for c, in := range u {
		if in {
			w.Int(c)
		}
	}
}

// EdgeColoring runs the full Panconesi–Rizzi algorithm on g and returns the
// per-vertex port colorings (merge with graph.MergePortColors). The palette
// is {1..2Δ−1} and the round cost is O(Δ) + O(log* n). It runs the bundle
// EdgeColorAlgo(Δ), so the Compiled engine executes the flat pass.
func EdgeColoring(g *graph.Graph, opts ...dist.Option) (*dist.Result[[]int], error) {
	return dist.RunAlgo(g, EdgeColorAlgo(g.MaxDegree()), opts...)
}
