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
// Every run is one-shot: it builds its own per-vertex runtime state (procs,
// vertex coroutines, shards, delivery queues), and its vertex coroutines end
// with the run, so nothing of it outlives the call.
//
// A panic inside any vertex instance aborts the run and is returned as an
// error carrying the vertex and the panic value.
func Run[T any](g *graph.Graph, algo func(Process) T, opts ...Option) (*Result[T], error) {
	return run(g, algo, parseOptions(opts))
}

// run executes one scheduled run. A plain per-vertex function has no flat
// pass (RunAlgo dispatches those before reaching here), so Compiled runs it
// on one shard, exactly as Lockstep does.
//
// The deferred releaseCoros ends every vertex coroutine, including those of
// a failed run (vertex panic, round cap): the ones parked inside Round are
// stopped, running their user defers, before the error is returned.
func run[T any](g *graph.Graph, algo func(Process) T, cfg config) (*Result[T], error) {
	switch cfg.engine {
	case Compiled:
		cfg.engine = Lockstep
	case Goroutines, Lockstep, Sharded:
	default:
		return nil, fmt.Errorf("dist: unknown engine %v", cfg.engine)
	}
	res := &Result[T]{Outputs: make([]T, g.N())}
	if g.N() == 0 {
		return res, nil
	}
	s := newSched(g, algo, cfg, res)
	defer releaseCoros(s.procs)
	if err := s.run(); err != nil {
		return nil, err
	}
	return res, nil
}

// releaseCoros gives back the vertex coroutines of procs. One parked inside
// Round (an aborted run) is stopped: it unwinds through the abort sentinel,
// running user defers, before stop returns. Every other one is idle —
// its instance returned, or it was never resumed — and is released with
// putCoro.
func releaseCoros[T any](procs []*proc[T]) {
	for _, p := range procs {
		if p.s.status[p.idx] == statusYielded {
			p.co.stop()
		} else {
			putCoro(p.co)
		}
	}
}

// newSched builds the runtime state of one run: a proc and a coroutine per
// vertex, every vertex running and active, and the vertex set split into
// the engine's shards.
func newSched[T any](g *graph.Graph, algo func(Process) T, cfg config, res *Result[T]) *sched[T] {
	n := g.N()
	count := 1 // Lockstep runs on a single shard
	if cfg.engine != Lockstep {
		count = cfg.shards
		if count <= 0 {
			count = runtime.GOMAXPROCS(0)
		}
		count = min(count, n, MaxShards)
	}
	s := &sched[T]{
		g:       g,
		cfg:     cfg,
		algo:    algo,
		res:     res,
		delta:   g.MaxDegree(),
		procs:   make([]*proc[T], n),
		status:  make([]uint8, n), // statusRunning
		outbox:  make([][][]byte, n),
		written: make([][]slotRef, count),
		shards:  make([]shard[T], count),
	}
	// A single shard needs no destination binning: its delivery is the
	// scatter pass (which also does the accounting), so the queue and
	// shard-lookup machinery stays nil and staging costs O(1).
	if count > 1 {
		s.shardOf = make([]int32, n)
		s.queues = make([][][]qentry, count)
		for i := range s.queues {
			s.queues[i] = make([][]qentry, count)
		}
	}
	procs := make([]proc[T], n)
	active := make([]*proc[T], n) // each shard's active list is its own range
	for i := range s.shards {
		sh := &s.shards[i]
		sh.index, sh.lo, sh.hi = i, i*n/count, (i+1)*n/count
		sh.active = active[sh.lo:sh.hi:sh.hi]
		for v := sh.lo; v < sh.hi; v++ {
			p := &procs[v]
			p.s, p.idx, p.id, p.shard = s, v, g.ID(v), sh
			p.co = getCoro(p)
			s.procs[v], active[v] = p, p
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

// slotRef names one inbox slot filled by a delivery; the next delivery
// clears exactly these slots, so the all-nil inbox invariant is maintained
// in O(messages), not O(m).
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

// proc is the per-vertex runtime state of one run; it implements Process.
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
	// of the run. Delivery rewrites only the slots it touches (clearing
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

// instance executes one algorithm instance — the vertex coroutine's task —
// to completion and records its output and halt. A panic
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
// round cap trips. On error the caller (run) stops the coroutines.
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
