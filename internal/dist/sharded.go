package dist

import (
	"fmt"
	"runtime"
	"sync"
)

// Every scheduled engine (Goroutines, Lockstep, Sharded) runs on one
// scheduler: the vertex set is partitioned into contiguous index ranges
// (GOMAXPROCS of them by default, override with WithShards, at most
// MaxShards; Lockstep always uses exactly one) and each shard gets one
// logical worker:
//
//   - Release is a token chain. The scheduler links the round's active
//     vertices of each shard into a list in index order and hands the first
//     one a token; every vertex runs until it yields at Round, halts, or
//     panics, then passes the token directly to its successor (the last one
//     wakes the scheduler). Within a shard execution is sequential in index
//     order, while shards run concurrently; a vertex handoff costs one
//     goroutine switch.
//   - With one shard, delivery is the scatter pass of run.go: the scheduler
//     walks the yielded vertices in index order, tallies each staged
//     message into Result.Stats, and writes it into its destination inbox.
//   - With several shards, accounting is sender-side. A yielding vertex
//     tallies its own staged outbox into its shard's Stats while it still
//     holds the token, so the tally is race-free and the accounted multiset
//     of messages is exactly the one the scatter pass accounts (dropped
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
	index  int           // position in sched.shards
	lo, hi int           // vertex index range [lo, hi)
	done   chan struct{} // token chain completion, capacity 1
	stats  Stats         // sender-side tally of the current round
	err    error         // first panic of this shard, in chain order
	first  *proc[T]      // head of the current round's token chain
}

// release runs one round's release phase: chain the active vertices of
// every shard, start all chains, wait for all of them to finish, then
// surface any panic in shard index order. Multi-shard message tallies are
// merged later, by deliverSharded, so the Stats a round-cap error reports
// exclude the capped round exactly as the single-shard scatter pass does.
func (s *sched[T]) release(active []*proc[T]) error {
	for i := range s.shards {
		s.shards[i].first = nil
	}
	// Link in reverse so each chain comes out in increasing index order.
	for i := len(active) - 1; i >= 0; i-- {
		p := active[i]
		s.status[p.idx] = statusRunning
		p.next = p.shard.first
		p.shard.first = p
	}
	for i := range s.shards {
		if sh := &s.shards[i]; sh.first != nil {
			sh.first.resume <- struct{}{}
		}
	}
	for i := range s.shards {
		if s.shards[i].first != nil {
			<-s.shards[i].done
		}
	}
	for i := range s.shards {
		if err := s.shards[i].err; err != nil {
			return err
		}
	}
	return nil
}

// yield parks a vertex at Round with its outbox staged. With one shard the
// outbox goes to the dense array the scatter delivery reads. With several
// it tallies the outbox into the shard's round stats and bins each message
// into the queue of its destination's shard — both in one pass, while the
// outbox is cache-hot and the vertex holds the token — and keeps no
// reference to the slice. Then it passes the token and blocks until the
// next release token. If that token is
// lifeline.kill's (the run aborted in the meantime), the goroutine unwinds
// via runtime.Goexit, running user defers; the exiting guard keeps defers
// that call Round during the unwind from touching the token chain again.
func (p *proc[T]) yield(out [][]byte) {
	if p.exiting {
		runtime.Goexit()
	}
	if s := p.s; s.queues == nil {
		s.outbox[p.idx] = out
	} else if out != nil {
		st := &p.shard.stats
		src := s.queues[p.shard.index]
		nbrs := s.g.Neighbors(p.idx)
		rp := s.g.ReversePorts(p.idx)
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
			src[j] = append(src[j], qentry{dst: u, port: rp[port], msg: msg})
		}
	}
	p.s.status[p.idx] = statusYielded
	p.passToken()
	<-p.resume
	if p.s.life.dead.Load() {
		p.exiting = true
		runtime.Goexit()
	}
}

// fail records a vertex panic against its shard (first in chain order
// wins) and passes the token so the rest of the chain still completes the
// round; the scheduler turns the recorded error into an abort at the next
// round barrier.
func (p *proc[T]) fail(panicked any) {
	if p.shard.err == nil {
		p.shard.err = fmt.Errorf("dist: vertex id %d panicked: %v", p.id, panicked)
	}
	p.s.status[p.idx] = statusDone
	p.passToken()
}

// passToken wakes the successor in the round's chain, or reports the chain
// complete. The send cannot block: the successor is parked (all chain
// members are parked when the chain starts and run one at a time), and the
// done channel has capacity 1 with exactly one completion per round.
func (p *proc[T]) passToken() {
	if p.next != nil {
		p.next.resume <- struct{}{}
	} else {
		p.shard.done <- struct{}{}
	}
}

// deliverSharded runs one multi-shard round's delivery phase. It folds the
// per-shard sender-side tallies into Result.Stats in shard index order, then
// every shard drains the message queues addressed to its own vertices, in
// parallel. Release-phase enqueues are published to all drain workers by
// the chain-completion barrier, and drain writes are published back by the
// WaitGroup, so the phase is race-free by construction.
func (s *sched[T]) deliverSharded() {
	for i := range s.shards {
		sh := &s.shards[i]
		s.res.Stats.Bytes += sh.stats.Bytes
		s.res.Stats.MaxMessageBytes = max(s.res.Stats.MaxMessageBytes, sh.stats.MaxMessageBytes)
		sh.stats = Stats{}
	}
	var wg sync.WaitGroup
	for j := 1; j < len(s.shards); j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			s.drainShard(j)
		}(j)
	}
	s.drainShard(0)
	wg.Wait()
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
