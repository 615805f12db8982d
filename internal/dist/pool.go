package dist

import "repro/internal/graph"

// Pool binds a graph to RunAlgo. Every run is one-shot (see Run), so a Pool
// holds no runtime state and is safe for concurrent use.
type Pool[T any] struct{ g *graph.Graph }

// NewPool returns a Pool over g. The int argument is ignored: runs share no
// state, so there is nothing to bound.
func NewPool[T any](g *graph.Graph, _ int) *Pool[T] { return &Pool[T]{g: g} }

// RunAlgo is RunAlgo(g, a, opts...) on the pool's graph.
func (p *Pool[T]) RunAlgo(a Algo[T], opts ...Option) (*Result[T], error) {
	return RunAlgo(p.g, a, opts...)
}

// Close is a no-op: a Pool holds nothing to release.
func (p *Pool[T]) Close() {}
