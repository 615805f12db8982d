package core

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/linial"
	"repro/internal/reduce"
	"repro/internal/wire"
)

// LegalColorAlgo bundles the per-vertex form of Procedure Legal-Color (the
// function LegalColorProcess returns) with its flat pass, the whole-run form
// the Compiled engine executes: the same colors and the same Stats, computed
// in one sweep over the graph's CSR ports instead of one coroutine per
// vertex. nBound bounds the identifiers and delta the maximum degree, as
// for LegalColorProcess.
func LegalColorAlgo(nBound, delta int, pl *Plan, mode Mode) (dist.Algo[int], error) {
	if pl.Edge {
		return dist.Algo[int]{}, fmt.Errorf("core: edge-mode plan passed to vertex Legal-Color")
	}
	if delta > pl.Delta {
		return dist.Algo[int]{}, fmt.Errorf("core: degree bound %d exceeds plan Δ=%d", delta, pl.Delta)
	}
	sched, err := newSchedule(nBound, delta, pl, mode)
	if err != nil {
		return dist.Algo[int]{}, err
	}
	return dist.Algo[int]{
		Vertex: func(v dist.Process) int {
			return legalColorVertex(v, pl, sched)
		},
		Compiled: legalFlat{pl: pl, s: sched},
	}, nil
}

// legalFlat is the dist.CompiledAlgo form of legalColorVertex. The
// per-vertex form's schedule is fixed by (nBound, Δ, plan, mode) —
// LegalRounds counts it — and every vertex arrives at every round, so the
// pass replays it round by round through one dist.Tally:
//   - StartAux only: the auxiliary Linial chain on every port;
//   - each recursion level: the masked ϕ chain, the ϕ exchange and the
//     fixed ψ window (defectiveFlat), after which the mask keeps only the
//     ports whose far end picked the same ψ;
//   - the leaf: the masked Linial chain, then the Kuhn–Wattenhofer merge.
//
// The per-vertex same-prefix masks are one dist.PortMask.
type legalFlat struct {
	pl *Plan
	s  *schedule
}

func (f legalFlat) RunCompiled(g *graph.Graph, env dist.CompiledEnv, out []int) (dist.Stats, error) {
	n, pl, s := g.N(), f.pl, f.s
	t := env.NewTally()
	pm := dist.NewPortMask(g)
	var sc linial.Scratch
	start := make([]int, n)
	for v := range start {
		start[v] = g.ID(v)
	}
	if err := linial.RunChainFlat(pm, s.auxSteps, start, t, &sc); err != nil {
		return t.Stats, err
	}
	clear(out) // the ψ offsets accumulate here
	col := make([]int, n)
	var d *defectiveFlat
	if pl.Depth() > 0 {
		d = newDefectiveFlat(n, pl.P)
	}
	for level := 0; level < pl.Depth(); level++ {
		copy(col, start)
		if err := linial.RunChainFlat(pm, s.phiSteps[level], col, t, &sc); err != nil {
			return t.Stats, err
		}
		window := linial.FinalPalette(s.k0, s.phiSteps[level])
		if err := d.run(pm, t, col, window); err != nil {
			return t.Stats, err
		}
		for v, psi := range d.psi {
			out[v] += (psi - 1) * pl.Thetas[level+1]
			in := pm.In[pm.Off[v]:pm.Off[v+1]]
			for p, u := range g.Neighbors(v) {
				if in[p] && d.psi[u] != psi {
					in[p] = false
					pm.Deg[v]--
				}
			}
		}
	}
	copy(col, start)
	if err := linial.RunChainFlat(pm, s.leafSteps, col, t, &sc); err != nil {
		return t.Stats, err
	}
	if err := reduce.KWReduceFlat(pm, col, s.leafK, pl.LeafBound()+1, t); err != nil {
		return t.Stats, err
	}
	for v, c := range col {
		out[v] += c
	}
	return t.Stats, nil
}

// defectiveFlat is lines 2-10 of DefectiveColorStep with the fixed window,
// run at every vertex in one pass; its buffers serve every level.
type defectiveFlat struct {
	p      int
	psi    []int // per vertex: ψ, 0 until picked
	counts []int // per vertex, p+1 entries: N_v(k) of Algorithm 1
	// waiting counts each vertex's smaller-ϕ neighbors yet to announce;
	// ready lists the vertices that pick ψ this round, next those that
	// pick it the round after.
	waiting     []int32
	ready, next []int32
}

func newDefectiveFlat(n, p int) *defectiveFlat {
	return &defectiveFlat{
		p:       p,
		psi:     make([]int, n),
		counts:  make([]int, n*(p+1)),
		waiting: make([]int32, n),
		ready:   make([]int32, 0, n),
		next:    make([]int32, 0, n),
	}
}

// run takes every vertex's ϕ and computes its ψ into d.psi, accounting
// through t the ϕ exchange and the window rounds. A vertex picks ψ in the
// first round in which every smaller-ϕ neighbor of the subgraph has
// announced, from the counts of the rounds before, and announces it once
// on every in-port; deliveries then update the counts and waiting of the
// larger-ϕ receivers, as DefectiveColorStep's receive loop does.
func (d *defectiveFlat) run(pm *dist.PortMask, t *dist.Tally, phi []int, window int) error {
	if err := pm.Exchange(t, phi); err != nil {
		return err
	}
	g, n, w := pm.G, len(phi), d.p+1
	clear(d.psi)
	clear(d.counts)
	d.ready = d.ready[:0]
	for v := 0; v < n; v++ {
		in := pm.In[pm.Off[v]:pm.Off[v+1]]
		waiting := int32(0)
		for p, u := range g.Neighbors(v) {
			if in[p] && phi[u] < phi[v] {
				waiting++
			}
		}
		d.waiting[v] = waiting
		if waiting == 0 {
			d.ready = append(d.ready, int32(v))
		}
	}
	for r := 0; r < window; r++ {
		if err := t.StartRound(n); err != nil {
			return err
		}
		for _, v := range d.ready {
			d.psi[v] = argminCount(d.counts[int(v)*w:int(v+1)*w], d.p)
			t.Messages(pm.Deg[v], wire.IntLen(d.psi[v]))
		}
		d.next = d.next[:0]
		for _, v := range d.ready {
			in := pm.In[pm.Off[v]:pm.Off[v+1]]
			for p, u := range g.Neighbors(int(v)) {
				if in[p] && phi[v] < phi[u] {
					d.counts[int(u)*w+d.psi[v]]++
					if d.waiting[u]--; d.waiting[u] == 0 {
						d.next = append(d.next, u)
					}
				}
			}
		}
		d.ready, d.next = d.next, d.ready
	}
	for v, psi := range d.psi {
		if psi == 0 {
			return dist.VertexPanicError(g.ID(v), noPsi(g.ID(v), window, phi[v]))
		}
	}
	return nil
}
