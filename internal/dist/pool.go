package dist

import (
	"sync"

	"repro/internal/graph"
)

// PoolStats is a point-in-time snapshot of a Pool's activity, taken with
// Pool.Stats. Reuses/Acquires is the runner-reuse rate the pool achieves: a
// steady-state service should see it approach 1.
type PoolStats struct {
	// Acquires is the number of runner acquisitions (= runs issued).
	Acquires int64 `json:"acquires"`
	// Builds is the number of Runners constructed; at most the pool cap.
	Builds int64 `json:"builds"`
	// Reuses is Acquires minus the acquisitions that had to build.
	Reuses int64 `json:"reuses"`
	// Waits is the number of acquisitions that blocked because every
	// built runner was busy and the build cap was reached.
	Waits int64 `json:"waits"`
	// Idle is the number of runners currently parked in the pool.
	Idle int `json:"idle"`
}

// Pool is a concurrency-safe pool of Runners over one graph. A single Runner
// amortizes per-vertex runtime state across runs but must not be used
// concurrently; a Pool lends out idle Runners to concurrent callers, building
// new ones on demand up to a cap and blocking further callers until a runner
// frees up. It pays only for scheduled runs: a Compiled run touches no Runner
// state, so under Compiled a Pool hands out empty Runners.
type Pool[T any] struct {
	g   *graph.Graph
	max int

	mu    sync.Mutex
	cond  *sync.Cond
	idle  []*Runner[T]
	stats PoolStats
	// closed rejects late releases: runners returned after Close are closed
	// instead of pooled, so Close never leaks parked vertex coroutines.
	closed bool
}

// NewPool returns a Pool over g that will build at most max Runners
// (max <= 0 means 1). The type parameter is the per-vertex output type of
// the algorithms the pool will run.
func NewPool[T any](g *graph.Graph, max int) *Pool[T] {
	if max <= 0 {
		max = 1
	}
	p := &Pool[T]{g: g, max: max}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Graph returns the graph the pool's runners execute on.
func (p *Pool[T]) Graph() *graph.Graph { return p.g }

func (p *Pool[T]) acquire() *Runner[T] {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Acquires++
	for {
		if n := len(p.idle); n > 0 {
			r := p.idle[n-1]
			p.idle = p.idle[:n-1]
			p.stats.Reuses++
			p.stats.Idle = len(p.idle)
			return r
		}
		// A closed pool no longer recycles, so the cap would starve blocked
		// callers; hand out fresh short-lived runners instead.
		if p.closed || p.stats.Builds < int64(p.max) {
			p.stats.Builds++
			return NewRunner[T](p.g)
		}
		p.stats.Waits++
		p.cond.Wait()
	}
}

func (p *Pool[T]) release(r *Runner[T]) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		r.Close()
		return
	}
	p.idle = append(p.idle, r)
	p.stats.Idle = len(p.idle)
	p.mu.Unlock()
	p.cond.Signal()
}

// Stats snapshots the pool's counters.
func (p *Pool[T]) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Idle = len(p.idle)
	return s
}

// Close shuts down every idle Runner and marks the pool closed: runners still
// lent out are closed as they are returned, and callers blocked in acquire
// are released to build fresh (short-lived) runners. Idempotent.
func (p *Pool[T]) Close() {
	p.mu.Lock()
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.stats.Idle = 0
	p.mu.Unlock()
	p.cond.Broadcast()
	for _, r := range idle {
		r.Close()
	}
}
