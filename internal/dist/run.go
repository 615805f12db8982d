package dist

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/graph"
)

// Run executes algo at every vertex of g under the synchronous LOCAL model
// and returns the per-vertex outputs with the measured cost. See the package
// documentation for the execution contract and the available Options.
//
// Run is a thin wrapper over a freshly built Runner, closed when the run
// ends, so its vertex coroutines end with the run; callers that execute many
// runs over the same graph should construct one Runner and reuse it so the
// per-vertex runtime state is amortized across runs.
//
// A panic inside any vertex instance aborts the run and is returned as an
// error carrying the vertex and the panic value.
func Run[T any](g *graph.Graph, algo func(Process) T, opts ...Option) (*Result[T], error) {
	return runOnce(g, algo, parseOptions(opts))
}

// runOnce executes one run on a fresh Runner closed when the run ends. The
// Runner is fresh either way, so Compiled goes straight to Lockstep.
func runOnce[T any](g *graph.Graph, algo func(Process) T, cfg config) (*Result[T], error) {
	if cfg.engine == Compiled {
		cfg.engine = Lockstep
	}
	r := NewRunner[T](g)
	defer r.Close()
	return r.run(algo, cfg)
}

// Runner executes repeated runs over one graph, amortizing the per-vertex
// runtime state — proc structs, the vertex coroutines themselves, the shard
// partition and its delivery queues, round inbox buffers, and Broadcast
// scratch outboxes — so that a steady-state run costs O(work), not
// O(bookkeeping). The reverse-slot table lives in the graph itself
// (graph.Slots, computed at build time), so a Runner adds no per-run
// preprocessing at all: between runs every vertex coroutine stays
// parked idle, and a new run merely resets statuses and resumes them again.
//
// Reuse contract: a Runner is NOT safe for concurrent use — runs must be
// issued one at a time (each run still executes vertices concurrently
// internally, engine permitting). Outputs and Stats of finished runs remain
// valid indefinitely, but message buffers received by an algorithm are only
// valid until its next Round call, as documented on Process.Round. A failed
// run (vertex panic, round cap) closes the Runner before the error is
// returned — the aborted vertices' user defers have run by then — and the
// next run rebuilds the pooled state.
//
// Close ends the parked vertex coroutines; forgetting to call it is not
// fatal (a GC cleanup ends them when the Runner becomes unreachable), but
// explicit Close is deterministic and cheap.
type Runner[T any] struct {
	g     *graph.Graph
	delta int

	procs   []*proc[T]
	status  []uint8      // dense per-vertex lifecycle, indexed like procs
	outbox  [][][]byte   // dense per-vertex staged outboxes
	shardOf []int32      // dense vertex -> shard index (multi-shard runs)
	written [][]slotRef  // per dest shard: inbox slots filled last round
	queues  [][][]qentry // [src shard][dest shard] staged message queue
	shards  []shard[T]   // vertex partition, rebuilt when the count changes
	// cleanup releases the coroutines of a Runner dropped without Close; it
	// is registered each time prepare builds the procs.
	cleanup runtime.Cleanup
}

// NewRunner returns a Runner for the given graph. The type parameter is the
// per-vertex output type of the algorithms it will run.
func NewRunner[T any](g *graph.Graph) *Runner[T] {
	return &Runner[T]{g: g, delta: g.MaxDegree()}
}

// Close ends the Runner's vertex coroutines and drops its pooled state. The
// Runner may be used again afterwards (the next Run rebuilds), but the
// idiomatic lifecycle is one Close at the end, usually by defer.
func (r *Runner[T]) Close() {
	r.cleanup.Stop()
	releaseCoros(r.procs)
	*r = Runner[T]{g: r.g, delta: r.delta}
}

// releaseCoros gives back the vertex coroutines of procs. One parked inside
// Round (an aborted run) is stopped: it unwinds through the abort sentinel,
// running user defers, before stop returns. Every other one is idle —
// between instances or never resumed — and is released with putCoro.
func releaseCoros[T any](procs []*proc[T]) {
	for _, p := range procs {
		if p.s.status[p.idx] == statusYielded {
			p.co.stop()
		} else {
			putCoro(p.co)
		}
	}
}

// clearStale nils the inbox slots filled by the previous run's final round,
// restoring the all-nil inbox invariant delivery relies on, in O(slots
// filled) rather than O(m).
func (r *Runner[T]) clearStale() {
	for j, wl := range r.written {
		for _, sr := range wl {
			r.procs[sr.idx].inbox[sr.port] = nil
		}
		r.written[j] = wl[:0]
	}
}

// Run executes one run; see Run (package function) for semantics.
//
// A failed run is closed before the error is returned: the coroutines parked
// inside Round are stopped, so no aborted vertex still runs user code, and
// the next run rebuilds the pooled state from scratch.
func (r *Runner[T]) Run(algo func(Process) T, opts ...Option) (*Result[T], error) {
	return r.run(algo, parseOptions(opts))
}

// run executes one run under a parsed configuration.
func (r *Runner[T]) run(algo func(Process) T, cfg config) (*Result[T], error) {
	if cfg.engine == Compiled {
		// A plain per-vertex function has no flat pass (RunAlgo dispatches
		// those before reaching here), so the Compiled engine runs it as a
		// one-shot Lockstep run on a fresh Runner: its coroutines end with
		// the run, and r's pooled state is left untouched.
		return runOnce(r.g, algo, cfg)
	}
	if cfg.engine != Goroutines && cfg.engine != Lockstep && cfg.engine != Sharded {
		return nil, fmt.Errorf("dist: unknown engine %v", cfg.engine)
	}
	res := &Result[T]{Outputs: make([]T, r.g.N())}
	if r.g.N() == 0 {
		return res, nil
	}
	if err := r.prepare(cfg, algo, res).run(); err != nil {
		r.Close()
		return nil, err
	}
	return res, nil
}

// prepare resets the pooled per-vertex state for one run and binds it to a
// fresh per-run scheduler, creating the vertex coroutines if none are live.
func (r *Runner[T]) prepare(cfg config, algo func(Process) T, res *Result[T]) *sched[T] {
	n := r.g.N()
	if r.procs == nil {
		r.procs = make([]*proc[T], n)
		for v := 0; v < n; v++ {
			p := &proc[T]{idx: v, id: r.g.ID(v)}
			p.co = getCoro(p)
			r.procs[v] = p
		}
		r.status = make([]uint8, n)
		r.outbox = make([][][]byte, n)
		// Safety net for Runners dropped without Close: release the parked
		// coroutines once the Runner is unreachable. No proc references the
		// Runner, so passing them here does not keep it alive.
		r.cleanup = runtime.AddCleanup(r, releaseCoros[T], r.procs)
	}
	// Undo the previous run's final delivery before the written lists are
	// potentially resized for a different engine or shard count.
	r.clearStale()
	s := &sched[T]{
		g:      r.g,
		cfg:    cfg,
		algo:   algo,
		res:    res,
		delta:  r.delta,
		procs:  r.procs,
		status: r.status,
		outbox: r.outbox,
	}
	count := 1 // Lockstep runs on a single shard
	if cfg.engine != Lockstep {
		count = cfg.shards
		if count <= 0 {
			count = runtime.GOMAXPROCS(0)
		}
		count = min(count, n, MaxShards)
	}
	if len(r.shards) != count {
		r.shards = make([]shard[T], count)
		for i := range r.shards {
			r.shards[i] = shard[T]{index: i, lo: i * n / count, hi: (i + 1) * n / count}
		}
	}
	s.shards = r.shards
	// A single shard needs no destination binning: its delivery is the
	// scatter pass (which also does the accounting), so the queue and
	// shard-lookup machinery stays nil and staging costs O(1).
	if count > 1 {
		if r.shardOf == nil {
			r.shardOf = make([]int32, n)
		}
		if len(r.queues) != count {
			r.queues = make([][][]qentry, count)
			for i := range r.queues {
				r.queues[i] = make([][]qentry, count)
			}
		}
		s.shardOf = r.shardOf
		s.queues = r.queues
	}
	if len(r.written) != count {
		r.written = make([][]slotRef, count)
	}
	s.written = r.written
	for _, p := range r.procs {
		p.s = s
		p.rng = nil
		p.idle = 0
		r.status[p.idx] = statusRunning
		r.outbox[p.idx] = nil
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.stats = Stats{}
		sh.err = nil
		sh.active = append(sh.active[:0], r.procs[sh.lo:sh.hi]...)
		for v := sh.lo; v < sh.hi; v++ {
			r.procs[v].shard = sh
			if s.shardOf != nil {
				s.shardOf[v] = int32(i)
			}
		}
	}
	return s
}

// Vertex lifecycle within a round. A slot is written only by its own vertex
// while that vertex runs (the one-way yield/halt it performs per resume) and
// read by its shard's worker once the vertex has switched back, so the
// status array needs no lock.
const (
	statusRunning uint8 = iota // not yet yielded this run
	statusYielded              // parked inside Round, outbox staged
	statusDone                 // returned; output recorded
)

// slotRef names one inbox slot filled by a delivery; the next delivery (or
// the next run) clears exactly these slots, so the all-nil inbox invariant
// is maintained in O(messages), not O(m).
type slotRef struct{ idx, port int32 }

// qentry is one staged message in a multi-shard delivery queue: the
// destination vertex, the destination-side port, and the payload.
type qentry struct {
	dst, port int32
	msg       []byte
}

// abortRun is the sentinel panic that unwinds a vertex coroutine stopped
// inside Round (an aborted run); instance recovers it after the user defers
// have run.
type abortRun struct{}

// proc is the per-vertex runtime state; it implements Process. A Runner
// keeps procs (and their pooled buffers and coroutines) alive across runs.
type proc[T any] struct {
	s   *sched[T]
	idx int // vertex index in g
	id  int // distinct identifier g.ID(idx)
	co  *coro
	// exiting is set once the coroutine has been stopped inside Round: user
	// defers that call Round during the unwind panic with the sentinel
	// again instead of staging messages for a run that is over.
	exiting bool
	// idle is the number of rounds, after the one it yielded in, that the
	// vertex still sits out inside Idle: releaseShard counts it as arrived
	// and decrements this instead of resuming it.
	idle int
	rng  *rand.Rand
	// inbox is the vertex's stable round inbox: a single pooled buffer of
	// length Deg, allocated on first use and then reused for every round
	// of every run. Delivery rewrites only the slots it touches (clearing
	// last round's via the written lists), so the slice Round returns is
	// exactly this buffer — valid until the vertex's next Round call, as
	// the Process contract states.
	inbox [][]byte
	// bcast is the scratch outbox reused by every Broadcast call; it is
	// invalidated (overwritten) at the vertex's next Round. bcastMsg
	// remembers the message the scratch currently replicates, so repeated
	// broadcasts of the same buffer (the steady state of "share my state
	// every round" algorithms) skip the refill entirely.
	bcast    [][]byte
	bcastMsg []byte
	// echo is the scratch that snapshots an outbox aliasing the pooled
	// inbox (the echo/forward pattern `v.Round(in)`): delivery recycles
	// inbox slots, so the staged slice must not be the inbox itself.
	echo [][]byte

	shard *shard[T] // the shard owning this vertex
}

var _ Process = (*proc[int])(nil)

func (p *proc[T]) ID() int        { return p.id }
func (p *proc[T]) N() int         { return p.s.g.N() }
func (p *proc[T]) Deg() int       { return p.s.g.Deg(p.idx) }
func (p *proc[T]) MaxDegree() int { return p.s.delta }

func (p *proc[T]) NeighborID(port int) int {
	return p.s.g.ID(int(p.s.g.Neighbors(p.idx)[port]))
}

func (p *proc[T]) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(VertexSeed(p.s.cfg.seed, p.id)))
	}
	return p.rng
}

func (p *proc[T]) Round(out [][]byte) [][]byte {
	if p.exiting {
		panic(abortRun{})
	}
	deg := p.Deg()
	if out != nil && len(out) != deg {
		panic(fmt.Sprintf("dist: vertex id %d sent %d messages on %d ports", p.id, len(out), deg))
	}
	if len(out) > 0 && p.inbox != nil && &out[0] == &p.inbox[0] {
		// The caller is forwarding the slice Round returned (echo pattern).
		// Delivery recycles inbox slots, so snapshot the headers into a
		// scratch; the message buffers themselves are never recycled.
		if p.echo == nil {
			p.echo = make([][]byte, deg)
		}
		copy(p.echo, out)
		out = p.echo
	}
	p.stage(out)
	p.suspend()
	if p.inbox == nil {
		// Nothing was ever delivered to this vertex; materialize the empty
		// inbox so the return is indexable.
		p.inbox = make([][]byte, deg)
	}
	return p.inbox
}

// suspend yields the coroutine back to its shard's worker until the next
// round it takes part in.
func (p *proc[T]) suspend() {
	if !p.co.yield(struct{}{}) {
		// The coroutine was stopped: unwind, running user defers on the way
		// out (any Round they call hits the exiting guard).
		p.exiting = true
		panic(abortRun{})
	}
}

// Idle stages an empty outbox and yields once; releaseShard then keeps the
// vertex in its shard's active list for the remaining k−1 rounds without
// resuming it. Whatever was delivered meanwhile is cleared by the next
// delivery, so it never surfaces.
func (p *proc[T]) Idle(k int) {
	if k <= 0 {
		return
	}
	if p.exiting {
		panic(abortRun{})
	}
	p.stage(nil)
	p.idle = k - 1
	p.suspend()
}

func (p *proc[T]) Broadcast(msg []byte) [][]byte {
	if msg == nil {
		return p.Round(nil)
	}
	if p.bcast == nil {
		p.bcast = make([][]byte, p.Deg())
	}
	out := p.bcast
	if !sameBuffer(msg, p.bcastMsg) {
		for i := range out {
			out[i] = msg
		}
		p.bcastMsg = msg
	}
	return p.Round(out)
}

// sameBuffer reports whether two non-empty slices share identity (backing
// array and length), i.e. replicating b is indistinguishable from
// replicating a.
func sameBuffer(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// instance executes one algorithm instance — the vertex coroutine's task
// for every run — to completion and records its output and halt. A panic
// anywhere in the algorithm is recorded against the vertex's shard instead,
// unless it is part of an abort unwind.
func (p *proc[T]) instance() {
	defer func() {
		if v := recover(); v != nil && !p.exiting {
			p.shard.err = VertexPanicError(p.id, v)
			p.s.status[p.idx] = statusDone
		}
	}()
	val := p.s.algo(p)
	if !p.exiting { // else a user defer swallowed the abort sentinel
		p.s.res.Outputs[p.idx] = val
		p.s.status[p.idx] = statusDone
	}
}

// sched drives one run (see sharded.go). The scheduled engines differ only
// in the shard count: one shard resumes every vertex in index order on the
// caller's goroutine, several resume their vertices concurrently and deliver
// through per-shard queues instead of the single-shard scatter pass.
type sched[T any] struct {
	g     *graph.Graph
	cfg   config
	algo  func(Process) T
	res   *Result[T]
	delta int

	procs   []*proc[T]
	status  []uint8      // per-vertex lifecycle, dense for delivery scans
	outbox  [][][]byte   // per-vertex staged outboxes, read by the one-shard scatter
	shardOf []int32      // vertex -> shard index (nil with one shard)
	written [][]slotRef  // per dest shard: inbox slots filled last round
	queues  [][][]qentry // [src shard][dest shard] staged messages (nil with one shard)
	shards  []shard[T]   // vertex partition, at least one shard
}

// run drives rounds until every vertex has halted, a vertex panics, or the
// round cap trips. On error the caller (Runner.Run) stops the coroutines.
func (s *sched[T]) run() error {
	for {
		if err := s.release(); err != nil {
			return err
		}
		arrived := 0
		for i := range s.shards {
			arrived += len(s.shards[i].active)
		}
		if arrived == 0 {
			return nil
		}
		s.res.Stats.Rounds++
		s.res.Stats.Activations += arrived
		if s.cfg.maxRounds > 0 && s.res.Stats.Rounds > s.cfg.maxRounds {
			return roundCapErr(s.cfg.maxRounds, s.res.Stats)
		}
		if s.queues != nil {
			s.deliverSharded()
		} else {
			s.deliver(s.shards[0].active)
		}
	}
}

// deliver is the single-shard delivery: it moves the staged outboxes of the
// vertices that called Round this round into their neighbors' inboxes,
// accounting costs as it goes. Messages addressed to a vertex that has
// already halted are dropped (but still accounted: the sender did transmit
// them). The previous round's inbox slots are cleared through the written
// list, so a round costs O(messages), not O(m), and steady-state rounds
// allocate nothing.
func (s *sched[T]) deliver(arrived []*proc[T]) {
	stats := &s.res.Stats
	wl := s.written[0]
	for _, sr := range wl {
		s.procs[sr.idx].inbox[sr.port] = nil
	}
	wl = wl[:0]
	off, rev := s.g.Slots()
	for _, p := range arrived {
		out := s.outbox[p.idx]
		if out == nil {
			continue
		}
		s.outbox[p.idx] = nil
		nbrs := s.g.Neighbors(p.idx)
		rs := rev[off[p.idx]:off[p.idx+1]]
		for port, msg := range out {
			if msg == nil {
				continue
			}
			stats.Bytes += len(msg)
			if len(msg) > stats.MaxMessageBytes {
				stats.MaxMessageBytes = len(msg)
			}
			u := nbrs[port]
			if s.status[u] != statusYielded {
				continue // halted this round or earlier: drop
			}
			q := s.procs[u]
			if q.inbox == nil {
				q.inbox = make([][]byte, s.g.Deg(int(u)))
			}
			up := rs[port] - off[u] // the port p.idx occupies at u
			q.inbox[up] = msg
			wl = append(wl, slotRef{idx: u, port: up})
		}
	}
	s.written[0] = wl
}
