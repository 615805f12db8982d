// Package algreg is the single registry of coloring algorithms: every alg
// value the service accepts and every -alg value the CLIs accept is one
// Algorithm entry here, self-describing its kind, quality tier, parameter
// canonicalization, palette bound, and constructors. The service resolves
// requests (including the quality knob) through Resolve/Default, the CLIs
// dispatch through the Run hooks and generate their -alg help from the same
// entries — so the two can never drift, and adding an algorithm is one
// registration instead of three switch arms.
package algreg

import (
	"fmt"
	"strings"

	"repro/internal/dist"
	"repro/internal/graph"
)

// Params carries the algorithm parameters a request or CLI invocation can
// set. Canon hooks normalize it per algorithm: defaults filled, fields the
// algorithm ignores zeroed (so cache keys stay canonical), invalid
// combinations rejected.
type Params struct {
	// B, P are the Algorithm 1 recursion parameters; C the assumed
	// neighborhood-independence bound (vertex kinds).
	B, P, C int
	// Mode is the §5 message mode of the plan-based edge algorithms.
	Mode string
	// Seed is the dist.WithSeed algorithm seed. Never canonicalized.
	Seed int64
}

// Qualities of the servable tiers, as accepted by the request quality knob.
const (
	// QualityFast is today's default behavior: the fewest-rounds tier.
	QualityFast = "fast"
	// QualityFewColors trades rounds for a measured palette near Δ.
	QualityFewColors = "fewcolors"
)

// Algorithm is one registered coloring algorithm. Kind+Name identify it;
// the optional hook sets make it servable (Canon plus the Build hook of its
// kind) and/or CLI-runnable (the Run hook of its kind).
type Algorithm struct {
	// Kind is "edge" or "vertex".
	Kind string
	// Name is the alg value on the wire and the -alg value on the CLIs.
	Name string
	// Quality is the tier a servable algorithm answers for on the request
	// quality knob (QualityFast or QualityFewColors); empty for CLI-only
	// entries.
	Quality string

	// Canon canonicalizes the service parameters. Required for servable
	// entries; it sees the shared defaults (b=2, c=2, mode=wide, c forced
	// to 0 for edge kinds) already applied.
	Canon func(p *Params) error
	// BuildEdge/BuildVertex construct the runnable algorithm for a graph and
	// return it with its palette bound for that instance. Exactly one is set
	// on a servable entry, matching Kind. The returned Algo runs on all four
	// engines: it always carries the per-vertex form, and a compiled flat
	// pass where one exists (every servable entry but edge/fewcolors, and
	// edge/be only when its plan has depth 0, which every default plan
	// has); without one, Compiled runs it as a one-shot Lockstep run.
	BuildEdge   func(g *graph.Graph, p Params) (dist.Algo[[]int], int, error)
	BuildVertex func(g *graph.Graph, p Params) (dist.Algo[int], int, error)

	// RunEdge/RunVertex are the CLI hooks: run the algorithm end to end on a
	// built graph and return the result plus note lines the CLI prints
	// before its legality footer.
	RunEdge   func(g *graph.Graph, p Params, opts ...dist.Option) (*dist.Result[[]int], []string, error)
	RunVertex func(g *graph.Graph, p Params, opts ...dist.Option) (*dist.Result[int], []string, error)
	// NoFooter suppresses the CLI's legality footer: the algorithm's output
	// is not a proper coloring (defective) and its notes say everything.
	NoFooter bool

	serveIndex int
}

// Servable reports whether the entry is reachable through the service.
func (a *Algorithm) Servable() bool {
	return a.Canon != nil && (a.BuildEdge != nil || a.BuildVertex != nil)
}

// ServeIndex is the entry's dense index among servable algorithms, in
// registration order: the stable slot the service's striped per-alg request
// counters and gauges use. -1 for CLI-only entries.
func (a *Algorithm) ServeIndex() int {
	if !a.Servable() {
		return -1
	}
	return a.serveIndex
}

// MaxServable bounds the number of servable algorithms; the service sizes
// its per-alg counter plane with it, so Register panics past the cap.
const MaxServable = 8

var (
	order    []*Algorithm
	index    = make(map[[2]string]*Algorithm)
	servable []*Algorithm
)

// Register adds an algorithm. It panics on duplicate (kind, name), unknown
// kind, a kind/hook mismatch, or a servable entry without a quality tier —
// registration happens in init, so a bad entry is a programming error.
func Register(a Algorithm) {
	if a.Kind != "edge" && a.Kind != "vertex" {
		panic(fmt.Sprintf("algreg: bad kind %q for %q", a.Kind, a.Name))
	}
	if a.Name == "" {
		panic("algreg: empty algorithm name")
	}
	k := [2]string{a.Kind, a.Name}
	if _, dup := index[k]; dup {
		panic(fmt.Sprintf("algreg: duplicate %s/%s", a.Kind, a.Name))
	}
	if (a.Kind == "edge" && (a.BuildVertex != nil || a.RunVertex != nil)) ||
		(a.Kind == "vertex" && (a.BuildEdge != nil || a.RunEdge != nil)) {
		panic(fmt.Sprintf("algreg: %s/%s registers hooks of the wrong kind", a.Kind, a.Name))
	}
	e := &a
	if e.Servable() {
		if e.Quality != QualityFast && e.Quality != QualityFewColors {
			panic(fmt.Sprintf("algreg: servable %s/%s needs a quality tier", a.Kind, a.Name))
		}
		if len(servable) >= MaxServable {
			panic("algreg: too many servable algorithms (raise MaxServable)")
		}
		e.serveIndex = len(servable)
		servable = append(servable, e)
	}
	order = append(order, e)
	index[k] = e
}

// Lookup finds an entry by kind and name.
func Lookup(kind, name string) (*Algorithm, bool) {
	a, ok := index[[2]string{kind, name}]
	return a, ok
}

// All returns every entry in registration order.
func All() []*Algorithm {
	out := make([]*Algorithm, len(order))
	copy(out, order)
	return out
}

// Servable returns the servable entries in ServeIndex order.
func Servable() []*Algorithm {
	out := make([]*Algorithm, len(servable))
	copy(out, servable)
	return out
}

// Resolve is the service's quality knob: it maps a request's (kind, alg,
// quality) triple to one servable entry. An explicit alg must be servable
// and, when quality is also set, match its tier; an empty alg with a quality
// picks that tier's default (the first registered servable entry of the
// kind and tier). Alg and quality both empty is an error — the caller must
// ask for something.
func Resolve(kind, name, quality string) (*Algorithm, error) {
	switch quality {
	case "", QualityFast, QualityFewColors:
	default:
		return nil, fmt.Errorf("unknown quality %q (want %s or %s)", quality, QualityFast, QualityFewColors)
	}
	if name == "" {
		if quality == "" {
			return nil, fmt.Errorf("unknown algorithm %q for kind %q", name, kind)
		}
		for _, a := range servable {
			if a.Kind == kind && a.Quality == quality {
				return a, nil
			}
		}
		return nil, fmt.Errorf("no %s algorithm with quality %q", kind, quality)
	}
	a, ok := Lookup(kind, name)
	if !ok || !a.Servable() {
		return nil, fmt.Errorf("unknown algorithm %q for kind %q", name, kind)
	}
	if quality != "" && a.Quality != quality {
		return nil, fmt.Errorf("algorithm %q has quality %q, not %q", name, a.Quality, quality)
	}
	return a, nil
}

// HelpList renders the kind's CLI-runnable names as "a|b|c", in registration
// order — the generated half of the CLIs' -alg flag usage.
func HelpList(kind string) string {
	var names []string
	for _, a := range order {
		if a.Kind != kind {
			continue
		}
		if (kind == "edge" && a.RunEdge == nil) || (kind == "vertex" && a.RunVertex == nil) {
			continue
		}
		names = append(names, a.Name)
	}
	return strings.Join(names, "|")
}
