// Package linial implements Linial's iterated color reduction (Lemma 2.1(1)
// of the paper: a legal O(Δ²)-vertex-coloring in log* n + O(1) rounds) and
// the polynomial cover-free set families that power it. The same machinery,
// with a nonzero per-step collision budget, yields the defective colorings of
// Kuhn [19] used by Lemma 2.1(3) and Theorem 4.7 (see package defective).
//
// # Construction
//
// A color x ∈ {0..k-1} is interpreted as a polynomial p_x of degree ≤ t over
// the field Z_q (base-q digits of x as coefficients, so q^(t+1) ≥ k ensures
// distinct colors give distinct polynomials). The vertex's "set" in the
// cover-free family is the graph of the polynomial {(a, p_x(a)) : a ∈ Z_q}.
// Two distinct polynomials agree on at most t points, so the sets of
// differently-colored vertices intersect in ≤ t points.
//
//   - Legal step (budget 0): with q > t·Λ, a vertex has some point (a,p(a))
//     hit by none of its ≤ Λ differently-colored neighbors; choosing it
//     yields a legal q²-coloring in one round.
//   - Defective step (budget δ): with q ≥ 2·t·Λ/δ, the point minimizing
//     agreements has ≤ ⌊t·Λ/q⌋ ≤ δ of them, so at most δ neighbors can end
//     up with the same new color; one round yields a coloring whose defect
//     grew by at most δ.
//
// Iterating legal steps from palette n reaches the O(Δ²) fixed point after
// log* n + O(1) rounds (each step maps k to roughly (Δ·log_Δ k)²).
package linial

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Step describes one color-reduction round. All vertices must apply the same
// Step in the same round (the schedule is a deterministic function of global
// knowledge, so each vertex computes it locally).
type Step struct {
	K      int // palette size expected on input (colors in 1..K)
	Q      int // field size (prime)
	T      int // maximum polynomial degree; q^(T+1) >= K and distinct colors give distinct polynomials
	Budget int // number of same-color collisions this step may introduce (0 = legal)
}

// NewPalette returns the palette size after applying the step.
func (s Step) NewPalette() int { return s.Q * s.Q }

// LegalSchedule returns the sequence of legal (budget-0) reduction steps that
// takes a k0-coloring of a graph with maximum degree ≤ degBound down to the
// O(degBound²) fixed point. The schedule length is log*(k0) + O(1).
func LegalSchedule(k0, degBound int) []Step {
	if degBound < 1 {
		degBound = 1
	}
	var steps []Step
	k := k0
	for {
		s, ok := legalStep(k, degBound)
		if !ok || s.NewPalette() >= k {
			return steps
		}
		steps = append(steps, s)
		k = s.NewPalette()
	}
}

// legalStep finds the cheapest legal step from palette k: the minimal degree
// t such that, with q = NextPrime(t·degBound), polynomials of degree ≤ t over
// Z_q can represent k distinct colors.
func legalStep(k, degBound int) (Step, bool) {
	for t := 1; t <= 64; t++ {
		q := NextPrime(maxInt(t*degBound+1, t+2))
		if powAtLeast(q, t+1, k) {
			return Step{K: k, Q: q, T: t, Budget: 0}, true
		}
	}
	return Step{}, false
}

// Apply computes the vertex's new color (1-based, in 1..s.NewPalette()) from
// its own current color and the current colors of its (relevant) neighbors.
// Neighbors whose color equals the vertex's own are skipped: in a legal
// chain they cannot exist; in a defective chain they are the already-spent
// defect, which the caller accounts separately (Theorem 4.7's d′ term).
// It panics with the error ApplyScratch returns.
func (s Step) Apply(own int, nbrs []int) int {
	c, err := s.ApplyScratch(own, nbrs, new(Scratch))
	if err != nil {
		panic(err.Error())
	}
	return c
}

// Scratch is the working memory of ApplyScratch and RunChainFlat; the zero
// value is ready, and one Scratch serves any number of steps.
type Scratch struct {
	buf, nbrs, next []int
}

// ints returns a zeroed slice of length n backed by b, growing b if needed.
func ints(b *[]int, n int) []int {
	if cap(*b) < n {
		*b = make([]int, n)
	}
	out := (*b)[:n]
	clear(out)
	return out
}

// ApplyScratch is Apply with caller-owned working memory: the same color,
// and no allocation once sc has grown to the step's size. It returns an
// error where Apply panics: an own color outside the palette, or a best
// point whose conflicts exceed the budget.
func (s Step) ApplyScratch(own int, nbrs []int, sc *Scratch) (int, error) {
	if own < 1 || own > s.K {
		return 0, fmt.Errorf("linial: color %d outside palette 1..%d", own, s.K)
	}
	buf := ints(&sc.buf, 2*s.Q+2*(s.T+1))
	// conflicts[a] = number of differently-colored neighbors whose
	// polynomial agrees with ours at point a; mineAt[a] is ours there.
	conflicts, mineAt := buf[:s.Q], buf[s.Q:2*s.Q]
	mine := coeffsInto(buf[2*s.Q:2*s.Q+s.T+1], own-1, s.Q, s.T)
	other := buf[2*s.Q+s.T+1:]
	for a := range mineAt {
		mineAt[a] = evalPoly(mine, a, s.Q)
	}
	for _, nc := range nbrs {
		if nc == own {
			continue
		}
		coeffsInto(other, nc-1, s.Q, s.T)
		for a, m := range mineAt {
			if m == evalPoly(other, a, s.Q) {
				conflicts[a]++
			}
		}
	}
	bestA, bestC := 0, conflicts[0]
	for a := 1; a < s.Q; a++ {
		if conflicts[a] < bestC {
			bestA, bestC = a, conflicts[a]
		}
	}
	if bestC > s.Budget {
		// The pigeonhole guarantee (≤ ⌊T·Λ/Q⌋ ≤ Budget) was violated, which
		// means the caller fed more neighbors than the degree bound assumed.
		return 0, fmt.Errorf("linial: %d conflicts at best point exceed budget %d (q=%d t=%d)",
			bestC, s.Budget, s.Q, s.T)
	}
	return bestA*s.Q + mineAt[bestA] + 1, nil
}

// Exchange abstracts one broadcast round: send own color, receive the colors
// of the relevant neighbors (callers filter to the subgraph they operate on).
type Exchange func(own int) []int

// RunChain applies the steps in order, starting from the 1-based color
// initial, using one exchange per step, and returns the final color.
func RunChain(steps []Step, initial int, exch Exchange) int {
	color := initial
	for _, s := range steps {
		nbrs := exch(color)
		color = s.Apply(color, nbrs)
	}
	return color
}

// RunChainFlat is RunChain run at every vertex of a flat network in one
// pass, for the flat (dist.CompiledAlgo) forms: colors[v] is vertex v's
// color, updated in place. Each step is one pm.Exchange of the colors,
// priced through t, then an ApplyScratch per vertex against the colors
// gathered from its in-ports. A failing Apply ends the pass with the error
// the scheduler reports for the first vertex, in index order, whose
// per-vertex form panics there.
func RunChainFlat(pm *dist.PortMask, steps []Step, colors []int, t *dist.Tally, sc *Scratch) error {
	for _, s := range steps {
		if err := pm.Exchange(t, colors); err != nil {
			return err
		}
		next := ints(&sc.next, len(colors))
		for v, own := range colors {
			sc.nbrs = pm.Gather(sc.nbrs[:0], v, colors)
			c, err := s.ApplyScratch(own, sc.nbrs, sc)
			if err != nil {
				return dist.VertexPanicError(pm.G.ID(v), err)
			}
			next[v] = c
		}
		copy(colors, next)
	}
	return nil
}

// FinalPalette returns the palette after running all steps starting from k0.
func FinalPalette(k0 int, steps []Step) int {
	k := k0
	for _, s := range steps {
		k = s.NewPalette()
	}
	return k
}

// OSquaredColoring runs the complete distributed protocol on g: every vertex
// starts with its identifier as its color and runs the legal chain, producing
// a legal O(Δ²)-coloring in log*(n) + O(1) rounds (Lemma 2.1(1)).
func OSquaredColoring(g *graph.Graph, opts ...dist.Option) (*dist.Result[int], error) {
	steps := LegalSchedule(g.N(), g.MaxDegree())
	return dist.Run(g, func(v dist.Process) int {
		return RunChain(steps, v.ID(), BroadcastExchange(v))
	}, opts...)
}

// BroadcastExchange returns an Exchange that broadcasts the color to all
// neighbors and collects all their colors (the whole-graph case).
func BroadcastExchange(v dist.Process) Exchange {
	return func(own int) []int {
		in := v.Broadcast(wire.EncodeInts(own))
		out := make([]int, 0, len(in))
		for _, msg := range in {
			if msg == nil {
				continue
			}
			val, err := wire.DecodeInt(msg)
			if err != nil {
				panic("linial: bad color message: " + err.Error())
			}
			out = append(out, val)
		}
		return out
	}
}

func coeffs(x, q, t int) []int {
	return coeffsInto(make([]int, t+1), x, q, t)
}

func coeffsInto(dst []int, x, q, t int) []int {
	for i := 0; i <= t; i++ {
		dst[i] = x % q
		x /= q
	}
	return dst
}

func evalPoly(cs []int, a, q int) int {
	acc := 0
	for i := len(cs) - 1; i >= 0; i-- {
		acc = (acc*a + cs[i]) % q
	}
	return acc
}

// powAtLeast reports whether q^e >= k without overflowing.
func powAtLeast(q, e, k int) bool {
	const maxInt = int(^uint(0) >> 1)
	acc := 1
	for i := 0; i < e; i++ {
		if acc > maxInt/q {
			return true // acc*q would overflow, so it certainly exceeds k
		}
		acc *= q
		if acc >= k {
			return true
		}
	}
	return acc >= k
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
