package core

import (
	"fmt"

	"repro/internal/defective"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/wire"
)

// DefectiveResult is the outcome of one Procedure Defective-Color invocation
// for one vertex: its ψ-color and the ψ-colors of its (same-subgraph)
// neighbors, which Legal-Color uses to split into the next level's
// subgraphs.
type DefectiveResult struct {
	Psi    int   // ψ(v) ∈ {1..p}
	NbrPsi []int // per port: neighbor's ψ, or 0 outside the current subgraph
}

// DefectiveColorStep runs Algorithm 1 (Procedure Defective-Color) from
// inside a vertex process, restricted to the subgraph spanned by the ports
// where same is true (nil = all ports).
//
//   - phiSteps is the reduction schedule of the ⌊Λ/(bp)⌋-defective
//     O((bp)²)-coloring ϕ of line 1 (Lemma 2.1(3)); phiStart is this
//     vertex's starting color for the chain (its identifier, or the §4.2
//     auxiliary color), with palette phiK0.
//   - p is the target number of ψ-colors.
//   - fixedWindow selects lockstep mode: the while-loop of lines 4-10 runs
//     for exactly #ϕ-palette rounds (the Lemma 3.2 bound), so that parallel
//     invocations on different subgraphs stay synchronized, as the
//     level-synchronous recursion of Legal-Color requires. With
//     fixedWindow=false the vertex retires as soon as it has announced ψ and
//     heard all same-subgraph neighbors (standalone, event-driven mode;
//     measured makespan is the longest increasing-ϕ chain, ≤ the bound).
//
// Guarantee (Theorem 3.7): on a subgraph with neighborhood independence ≤ c
// and degree ≤ Λ, ψ is a ((m_ϕ + Λ/p)·c + c)-defective p-coloring, where m_ϕ
// is the defect of ϕ.
func DefectiveColorStep(v dist.Process, same []bool, p int, phiSteps []linial.Step, phiStart, phiK0 int, fixedWindow bool) DefectiveResult {
	deg := v.Deg()
	inSub := func(port int) bool { return same == nil || same[port] }

	// Line 1: compute ϕ by the defective reduction chain, exchanging colors
	// only within the subgraph.
	phi := linial.RunChain(phiSteps, phiStart, func(own int) []int {
		return exchangeInts(v, same, own)
	})
	phiPalette := linial.FinalPalette(phiK0, phiSteps)

	// Line 2: send ϕ(v) to all subgraph neighbors.
	nbrPhi := exchangeIntsByPort(v, same, phi)

	// Lines 3-10: the recolor loop. N[k] counts subgraph neighbors u with
	// ϕ(u) < ϕ(v) whose ψ(u) = k (the paper's N_v(k)); a vertex selects its
	// ψ as soon as every smaller-ϕ neighbor has announced.
	waiting := 0
	for port := 0; port < deg; port++ {
		if inSub(port) && nbrPhi[port] != 0 && nbrPhi[port] < phi {
			waiting++
		}
	}
	counts := make([]int, p+1)
	nbrPsi := make([]int, deg)
	psi := 0
	announced := false
	heard := 0
	total := 0
	for port := 0; port < deg; port++ {
		if inSub(port) && nbrPhi[port] != 0 {
			total++
		}
	}
	for round := 0; round < phiPalette; round++ {
		if psi == 0 && waiting == 0 {
			psi = argminCount(counts, p)
		}
		var out [][]byte
		if psi != 0 && !announced {
			out = make([][]byte, deg)
			msg := wire.EncodeInts(psi)
			for port := 0; port < deg; port++ {
				if inSub(port) {
					out[port] = msg
				}
			}
			announced = true
		}
		in := v.Round(out)
		for port := 0; port < deg; port++ {
			if !inSub(port) || in[port] == nil || nbrPsi[port] != 0 {
				continue
			}
			val, err := wire.DecodeInt(in[port])
			if err != nil {
				panic("core: bad ψ message: " + err.Error())
			}
			nbrPsi[port] = val
			heard++
			if nbrPhi[port] < phi {
				counts[val]++
				waiting--
			}
		}
		if !fixedWindow && announced && heard == total {
			break
		}
	}
	if psi == 0 {
		// The Lemma 3.2 bound guarantees this cannot happen when the window
		// is respected by all participants.
		panic(noPsi(v.ID(), phiPalette, phi))
	}
	return DefectiveResult{Psi: psi, NbrPsi: nbrPsi}
}

// noPsi is the panic value of a vertex left without a ψ after the window.
func noPsi(id, window, phi int) string {
	return fmt.Sprintf("core: vertex id %d failed to select ψ within %d rounds (ϕ=%d)", id, window, phi)
}

// argminCount returns the least-loaded ψ-color (ties to the smallest color),
// line 6-7 of Algorithm 1.
func argminCount(counts []int, p int) int {
	best, bestK := counts[1], 1
	for k := 2; k <= p; k++ {
		if counts[k] < best {
			best, bestK = counts[k], k
		}
	}
	return bestK
}

// DefectiveColoring runs Procedure Defective-Color standalone on a graph
// with neighborhood independence at most c: it computes the
// ((c+ε)·Δ/p + c)-defective p-coloring of Corollary 3.8 with b controlling ε.
// The run is event-driven (Lemma 3.2), so the measured round count is the
// longest increasing-ϕ chain plus the ϕ-chain length.
func DefectiveColoring(g *graph.Graph, c, b, p int, opts ...dist.Option) (*dist.Result[int], error) {
	delta := g.MaxDegree()
	if p < 1 || b < 1 {
		return nil, fmt.Errorf("core: b=%d, p=%d must be positive", b, p)
	}
	if b*p > delta {
		return nil, fmt.Errorf("core: b·p=%d exceeds Λ=%d", b*p, delta)
	}
	phiSteps := defective.Schedule(g.N(), delta, delta/(b*p))
	res, err := dist.Run(g, func(v dist.Process) int {
		return DefectiveColorStep(v, nil, p, phiSteps, v.ID(), g.N(), false).Psi
	}, opts...)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// DefectiveColoringBound returns the Theorem 3.7 defect bound of
// DefectiveColoring for the given parameters: (m_ϕ + Λ/p)·c + c with
// m_ϕ = ⌊Λ/(bp)⌋.
func DefectiveColoringBound(delta, c, b, p int) int {
	return (delta/(b*p)+delta/p)*c + c
}
