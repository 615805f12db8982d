package dist

import "sync"

// Every scheduled engine (Goroutines, Lockstep, Sharded) runs on one
// scheduler. Each vertex is an iter.Pull coroutine, and the vertex set is
// partitioned into contiguous index ranges (GOMAXPROCS of them by default,
// override with WithShards, at most MaxShards; Lockstep always uses exactly
// one), each with one worker per round:
//
//   - Release is a resume loop. Each shard's worker resumes the shard's
//     active vertices in index order; every vertex runs until it yields at
//     Round, halts, or panics, then switches straight back to the worker.
//     With one shard the worker is the caller's goroutine; with several,
//     shard 0 runs on the caller and every other shard on a goroutine of its
//     own, so shards run concurrently while each shard is sequential.
//   - With one shard, delivery is the scatter pass of run.go: the scheduler
//     walks the yielded vertices in index order, tallies each staged
//     message into Result.Stats, and writes it into its destination inbox.
//   - With several shards, accounting is sender-side. A yielding vertex
//     tallies its own staged outbox into its shard's Stats while its worker
//     waits on it, so the tally is race-free and the accounted multiset of
//     messages is exactly the one the scatter pass accounts (dropped
//     messages included). Shard tallies are merged into Result.Stats in
//     shard index order at every round barrier.
//   - Multi-shard delivery is destination-sharded. Each yielding vertex bins
//     its messages into the queue of the destination's shard; each shard's
//     worker then drains the queues addressed to its own vertices. Only the
//     owning shard writes a vertex's inbox, so delivery parallelizes with
//     no locks.
//
// Both phases are separated by barriers, so for a fixed graph, algorithm and
// seed every engine and every shard count produces byte-identical Outputs
// and Stats (TestEnginesAgree, TestEngineFamilyProperty).
type shard[T any] struct {
	index  int        // position in sched.shards
	lo, hi int        // vertex index range [lo, hi)
	active []*proc[T] // vertices to resume this round, in index order
	stats  Stats      // sender-side tally of the current round
	err    error      // panic of this shard's first failing vertex
}

// release runs one round's release phase on every shard, then surfaces any
// panic in shard index order. Multi-shard message tallies are merged later,
// by deliverSharded, so the Stats a round-cap error reports exclude the
// capped round exactly as the single-shard scatter pass does.
func (s *sched[T]) release() error {
	if len(s.shards) == 1 {
		s.releaseShard(0) // direct call: a steady-state Lockstep round allocates nothing
	} else {
		s.parallel(s.releaseShard)
	}
	for i := range s.shards {
		if err := s.shards[i].err; err != nil {
			return err
		}
	}
	return nil
}

// releaseShard resumes every active vertex of shard j in index order and
// keeps the ones that yielded as the next round's active list. A vertex
// inside Idle stays active but is not resumed: its remaining idle count
// drops by one instead. A panic ends the shard's round at once: the
// vertices after it are not resumed, so the error names the shard's first
// failing vertex and the run aborts at the barrier.
func (s *sched[T]) releaseShard(j int) {
	sh := &s.shards[j]
	kept := sh.active[:0]
	for _, p := range sh.active {
		if p.idle > 0 {
			p.idle--
			kept = append(kept, p)
			continue
		}
		p.co.next()
		if sh.err != nil {
			return
		}
		if s.status[p.idx] == statusYielded {
			kept = append(kept, p)
		}
	}
	sh.active = kept
}

// parallel runs phase for every shard — shard 0 on the caller's goroutine,
// each other shard on a goroutine of its own — and returns when all are
// done. The WaitGroup publishes every worker's writes to the caller.
func (s *sched[T]) parallel(phase func(j int)) {
	var wg sync.WaitGroup
	for j := 1; j < len(s.shards); j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			phase(j)
		}()
	}
	phase(0)
	wg.Wait()
}

// stage records a vertex's outbox as it yields at Round. With one shard the
// outbox goes to the dense array the scatter delivery reads. With several
// it tallies the outbox into the shard's round stats and bins each message
// into the queue of its destination's shard — both in one pass, while the
// outbox is cache-hot — and keeps no reference to the slice.
func (p *proc[T]) stage(out [][]byte) {
	if s := p.s; s.queues == nil {
		s.outbox[p.idx] = out
	} else if out != nil {
		st := &p.shard.stats
		src := s.queues[p.shard.index]
		nbrs := s.g.Neighbors(p.idx)
		off, rev := s.g.Slots()
		rs := rev[off[p.idx]:off[p.idx+1]]
		for port, msg := range out {
			if msg == nil {
				continue
			}
			st.Bytes += len(msg)
			if len(msg) > st.MaxMessageBytes {
				st.MaxMessageBytes = len(msg)
			}
			u := nbrs[port]
			j := s.shardOf[u]
			src[j] = append(src[j], qentry{dst: u, port: rs[port] - off[u], msg: msg})
		}
	}
	p.s.status[p.idx] = statusYielded
}

// deliverSharded runs one multi-shard round's delivery phase. It folds the
// per-shard sender-side tallies into Result.Stats in shard index order, then
// every shard drains the message queues addressed to its own vertices, in
// parallel. Release-phase enqueues are published to all drain workers by
// the release barrier, and drain writes are published back by the
// WaitGroup, so the phase is race-free by construction.
func (s *sched[T]) deliverSharded() {
	for i := range s.shards {
		sh := &s.shards[i]
		s.res.Stats.Bytes += sh.stats.Bytes
		s.res.Stats.MaxMessageBytes = max(s.res.Stats.MaxMessageBytes, sh.stats.MaxMessageBytes)
		sh.stats = Stats{}
	}
	s.parallel(s.drainShard)
}

// drainShard clears the slots this shard's previous delivery filled, then
// moves every queued message of the round into its destination inbox,
// dropping those whose destination has halted (their bytes were already
// tallied by the sender). Source queues are visited in shard index order,
// and each queue holds its entries in chain (= vertex index) order, so the
// drain is deterministic; the whole phase costs O(messages), not O(m).
func (s *sched[T]) drainShard(j int) {
	wl := s.written[j]
	for _, sr := range wl {
		s.procs[sr.idx].inbox[sr.port] = nil
	}
	wl = wl[:0]
	for i := range s.shards {
		queue := s.queues[i][j]
		for _, e := range queue {
			if s.status[e.dst] != statusYielded {
				continue // halted this round or earlier: drop
			}
			d := s.procs[e.dst]
			if d.inbox == nil {
				d.inbox = make([][]byte, s.g.Deg(int(e.dst)))
			}
			d.inbox[e.port] = e.msg
			wl = append(wl, slotRef{idx: e.dst, port: e.port})
		}
		s.queues[i][j] = queue[:0]
	}
	s.written[j] = wl
}
