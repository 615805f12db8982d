// Package edgecolor implements the paper's headline results (§5, Theorem
// 5.5): deterministic edge coloring of general graphs with
//
//	(1) O(Δ) colors in O(Δ^ε) + log* n rounds,
//	(2) O(Δ^{1+η}) colors in O(log Δ) + log* n rounds,
//	(3) Δ^{1+o(1)} colors in O((log Δ)^{1+ζ}) + log* n rounds,
//
// via the direct edge-coloring variant of Procedures Defective-Color and
// Legal-Color: the line graph L(G) has neighborhood independence at most 2
// (Lemma 5.1), each edge's state is co-maintained by both endpoints, the
// defective coloring ϕ comes from Kuhn's O(1)-round routine (Corollary 5.4),
// and the recursion leaf is the Panconesi–Rizzi (2Λ−1)-edge-coloring. Both
// message regimes of §5 are provided: Wide sends the p counter values
// N_{e,u}(1..p) in one O(p·log Δ)-bit message; Short spreads them over p
// rounds of O(log n)-bit messages, trading rounds for message size. The
// simulation alternative (Lemma 5.2) lives in linegraph.go, and the §6
// extensions in ext.go.
package edgecolor

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/wire"
)

// MsgMode selects the message-size regime of §5.
type MsgMode int

const (
	// Wide sends the p-entry count vector in a single message of
	// O(p·log Δ) bits; the ψ-selection window is the ϕ-palette (bp)².
	Wide MsgMode = iota
	// Short sends O(log n)-bit messages only, spreading each count vector
	// over p rounds; the window grows to (bp)²·(p+1) rounds (the paper's
	// O(b²p³) bound).
	Short
)

// edgeState is the per-port view of one edge during the edge variant of
// Procedure Defective-Color.
type edgeState struct {
	phi     int // ϕ(e), known to both endpoints (Cor 5.4)
	psi     int // ψ(e) ∈ {1..p}, 0 until decided
	group   int // local group key: edges in the same current subgraph
	active  bool
	myReady bool
}

// DefectiveEdgeStep runs the §5 edge variant of Algorithm 1 on the class
// subgraphs given by classOf (per port, 0 = inactive; both endpoints agree;
// every class has degree ≤ lam at each vertex... lam is Λ, the level degree
// bound). pPrime = b·p is Corollary 5.4's parameter; p is the target ψ
// palette. Returns ψ per port (0 on inactive ports).
//
// Guarantee (§5): within every class, ψ is a ((4⌈Λ/(bp)⌉ + Λ/p)·2 + 2)-
// defective p-edge-coloring. Round cost: 1 + window, where window = (bp)²
// in Wide mode and (bp)²·(p+1) in Short mode.
func DefectiveEdgeStep(v dist.Process, classOf []int, p, pPrime, lam int, mode MsgMode) []int {
	deg := v.Deg()
	states := make([]edgeState, deg)

	// --- Corollary 5.4 within each class: one labeling round. ---
	chunk := (lam + pPrime - 1) / pPrime
	if chunk == 0 {
		chunk = 1
	}
	out := make([][]byte, deg)
	myLabel := make([]int, deg)
	perClass := make(map[int]int, 4)
	for port := 0; port < deg; port++ {
		c := classOf[port]
		if c == 0 {
			continue
		}
		idx := perClass[c]
		perClass[c]++
		myLabel[port] = idx/chunk + 1
		out[port] = wire.EncodeInts(myLabel[port])
	}
	in := v.Round(out)
	for port := 0; port < deg; port++ {
		if classOf[port] == 0 {
			continue
		}
		val, err := wire.DecodeInt(in[port])
		if err != nil {
			panic("edgecolor: bad label message: " + err.Error())
		}
		a, b := myLabel[port], val
		if v.NeighborID(port) < v.ID() {
			a, b = b, a
		}
		states[port] = edgeState{
			phi:    (a-1)*pPrime + b,
			group:  classOf[port],
			active: true,
		}
	}

	// --- Lines 3-10, edge form: the ψ-selection window. ---
	phiPalette := pPrime * pPrime
	window := phiPalette
	if mode == Short {
		window = (phiPalette + 1) * (p + 1)
	}
	// Short-mode reassembly buffers: counts received so far per port.
	partial := make(map[int][]int, deg)

	for round := 0; round < window; round++ {
		// Readiness: all same-class edges at this vertex with smaller ϕ
		// have a ψ.
		for port := range states {
			st := &states[port]
			if !st.active || st.psi != 0 {
				continue
			}
			st.myReady = true
			for q := range states {
				o := &states[q]
				if q != port && o.active && o.group == st.group && o.phi < st.phi && o.psi == 0 {
					st.myReady = false
					break
				}
			}
		}
		out := make([][]byte, deg)
		for port := range states {
			st := &states[port]
			if !st.active || st.psi != 0 {
				continue
			}
			var w wire.Writer
			if !st.myReady {
				w.Uint(0)
			} else {
				w.Uint(1)
				counts := sideCounts(states, port, p)
				switch mode {
				case Wide:
					w.Ints(counts)
				case Short:
					// Send one counter per round, cycling k = 1..p by the
					// round index within the current attempt window.
					k := round%(p+1) + 1
					if k <= p {
						w.Int(counts[k-1])
						w.Int(k)
					}
				}
			}
			out[port] = w.Bytes()
		}
		in := v.Round(out)
		for port := range states {
			st := &states[port]
			if !st.active || st.psi != 0 || in[port] == nil {
				continue
			}
			r := wire.NewReader(in[port])
			ready := r.Uint()
			if ready == 0 || !st.myReady {
				continue
			}
			var theirs []int
			switch mode {
			case Wide:
				theirs = r.Ints()
				if r.Err() != nil {
					panic("edgecolor: bad counts message: " + r.Err().Error())
				}
			case Short:
				if partial[port] == nil {
					partial[port] = make([]int, p)
					for i := range partial[port] {
						partial[port][i] = -1
					}
				}
				if r.Remaining() > 0 {
					cnt := r.Int()
					k := r.Int()
					if r.Err() != nil {
						panic("edgecolor: bad short counts: " + r.Err().Error())
					}
					partial[port][k-1] = cnt
				}
				complete := true
				for _, c := range partial[port] {
					if c < 0 {
						complete = false
						break
					}
				}
				if !complete {
					continue
				}
				theirs = partial[port]
			}
			mine := sideCounts(states, port, p)
			st.psi = argminSum(mine, theirs)
			delete(partial, port)
		}
	}
	psis := make([]int, deg)
	for port := range states {
		if states[port].active {
			if states[port].psi == 0 {
				panic(fmt.Sprintf("edgecolor: vertex id %d port %d failed to select ψ within %d rounds",
					v.ID(), port, window))
			}
			psis[port] = states[port].psi
		}
	}
	return psis
}

// sideCounts returns N_{e,v}(1..p): for the edge at the given port, how many
// other same-class edges at this vertex with smaller ϕ carry each ψ-color.
func sideCounts(states []edgeState, port, p int) []int {
	st := &states[port]
	counts := make([]int, p)
	for q := range states {
		o := &states[q]
		if q != port && o.active && o.group == st.group && o.phi < st.phi && o.psi != 0 {
			counts[o.psi-1]++
		}
	}
	return counts
}

// argminSum returns the 1-based index minimizing mine[k]+theirs[k], ties to
// the smallest index — both endpoints evaluate it identically.
func argminSum(mine, theirs []int) int {
	best, bestK := mine[0]+theirs[0], 1
	for k := 1; k < len(mine); k++ {
		if s := mine[k] + theirs[k]; s < best {
			best, bestK = s, k+1
		}
	}
	return bestK
}

// DefectiveEdgeColoring runs the edge variant of Procedure Defective-Color
// standalone on the whole graph: a ((4⌈Δ/(bp)⌉ + Δ/p)·2 + 2)-defective
// p-edge-coloring in (bp)² + O(1) rounds. Use DefectiveEdgeBound for the
// defect bound.
func DefectiveEdgeColoring(g *graph.Graph, b, p int, mode MsgMode, opts ...dist.Option) (*dist.Result[[]int], error) {
	delta := g.MaxDegree()
	if b < 1 || p < 1 {
		return nil, fmt.Errorf("edgecolor: b=%d, p=%d must be positive", b, p)
	}
	if b*p > delta {
		return nil, fmt.Errorf("edgecolor: b·p=%d exceeds Δ=%d", b*p, delta)
	}
	return dist.Run(g, func(v dist.Process) []int {
		classOf := make([]int, v.Deg())
		for i := range classOf {
			classOf[i] = 1
		}
		return DefectiveEdgeStep(v, classOf, p, b*p, delta, mode)
	}, opts...)
}

// DefectiveEdgeBound returns the §5 defect bound of the edge variant of
// Procedure Defective-Color: (4⌈Λ/(bp)⌉ + Λ/p)·c + c with c = 2.
func DefectiveEdgeBound(delta, b, p int) int {
	bound, _ := core.EdgeLevelBounds(delta, b, p)
	return bound
}
