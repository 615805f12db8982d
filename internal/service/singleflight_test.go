package service

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

// gatedFill is a RemoteFill hook that parks every execution reaching it until
// release is closed, tracking how many are parked at once. It never returns a
// record, so each execution goes on to run locally.
type gatedFill struct {
	release chan struct{}
	entered chan struct{} // one send per execution, on arrival

	mu              sync.Mutex
	cur, max, calls int
}

func newGatedFill() *gatedFill {
	return &gatedFill{release: make(chan struct{}), entered: make(chan struct{}, 64)}
}

func (g *gatedFill) fill(string, string) []byte {
	g.mu.Lock()
	g.cur++
	g.calls++
	g.max = max(g.max, g.cur)
	g.mu.Unlock()
	g.entered <- struct{}{}
	<-g.release
	g.mu.Lock()
	g.cur--
	g.mu.Unlock()
	return nil
}

// waitFor polls cond until it holds, failing the test after a few seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// recv takes one asynchronous result, failing the test if it does not arrive
// within a few seconds.
func recv(t *testing.T, what string, ch <-chan handled) handled {
	t.Helper()
	select {
	case h := <-ch:
		return h
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return handled{}
	}
}

type handled struct {
	resp    *Response
	outcome Outcome
	err     error
}

func handleAsync(s *Service, req Request) <-chan handled {
	ch := make(chan handled, 1)
	go func() {
		resp, outcome, err := s.Handle(req)
		ch <- handled{resp, outcome, err}
	}()
	return ch
}

// TestMissesCoalesceOntoOneRun parks the first miss of a key inside its
// execution and sends duplicates meanwhile: each must attach to that one
// execution, and all of them must get its answer.
func TestMissesCoalesceOntoOneRun(t *testing.T) {
	gf := newGatedFill()
	s := New(Config{Workers: 2, RemoteFill: gf.fill})
	defer s.Close()

	req := gnmReq("edge", "be", 1)
	const dups = 7
	leader := handleAsync(s, req)
	<-gf.entered
	var waiters []<-chan handled
	for i := 0; i < dups; i++ {
		waiters = append(waiters, handleAsync(s, req))
	}
	waitFor(t, "every duplicate to coalesce", func() bool { return s.Stats().Coalesced == dups })
	close(gf.release)

	first := <-leader
	if first.err != nil || first.outcome != Miss {
		t.Fatalf("leader: outcome %q, err %v; want a miss", first.outcome, first.err)
	}
	want, _ := json.Marshal(first.resp)
	for i, w := range waiters {
		h := <-w
		if h.err != nil || h.outcome != Coalesced {
			t.Fatalf("duplicate %d: outcome %q, err %v; want coalesced", i, h.outcome, h.err)
		}
		if got, _ := json.Marshal(h.resp); string(got) != string(want) {
			t.Fatalf("duplicate %d: response differs from the leader's", i)
		}
	}
	if st := s.Stats(); st.Runs != 1 || gf.calls != 1 {
		t.Fatalf("runs %d, fill calls %d; want exactly one execution", st.Runs, gf.calls)
	}
}

// TestWorkersBoundConcurrentMisses sends more distinct misses than there are
// workers, each parked inside its execution: no more than Workers may be
// executing at once, and every one must complete once released.
func TestWorkersBoundConcurrentMisses(t *testing.T) {
	gf := newGatedFill()
	const workers, misses = 2, 6
	s := New(Config{Workers: workers, RemoteFill: gf.fill})
	defer s.Close()

	var results []<-chan handled
	for i := 0; i < misses; i++ {
		results = append(results, handleAsync(s, gnmReq("vertex", "greedy", int64(i))))
	}
	for i := 0; i < workers; i++ {
		<-gf.entered
	}
	waitFor(t, "every miss to arrive", func() bool { return s.Stats().Requests == misses })
	close(gf.release)
	for i, r := range results {
		if h := <-r; h.err != nil || h.outcome != Miss {
			t.Fatalf("miss %d: outcome %q, err %v", i, h.outcome, h.err)
		}
	}
	if gf.max != workers {
		t.Fatalf("%d executions ran at once, want the Workers bound %d", gf.max, workers)
	}
	if st := s.Stats(); st.Runs != misses {
		t.Fatalf("runs %d, want %d", st.Runs, misses)
	}
}

// TestCloseFailsQueuedMisses closes the service while one execution is
// running, one duplicate waits on it, and one distinct miss waits for the
// only worker slot. The queued miss must fail with ErrClosed at once; Close
// must wait for the running execution, whose answer still reaches its
// duplicate; requests after Close must fail.
func TestCloseFailsQueuedMisses(t *testing.T) {
	gf := newGatedFill()
	s := New(Config{Workers: 1, RemoteFill: gf.fill})

	req := gnmReq("edge", "pr", 1)
	leader := handleAsync(s, req)
	<-gf.entered
	dup := handleAsync(s, req)
	waitFor(t, "the duplicate to coalesce", func() bool { return s.Stats().Coalesced == 1 })
	queued := handleAsync(s, gnmReq("edge", "pr", 2))
	waitFor(t, "the queued miss to arrive", func() bool { return s.Stats().Requests == 3 })

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	if h := recv(t, "the queued miss to fail", queued); !errors.Is(h.err, ErrClosed) {
		t.Fatalf("queued miss: outcome %q, err %v; want ErrClosed", h.outcome, h.err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while an execution was still running")
	default:
	}
	close(gf.release)
	l, d := recv(t, "the leader", leader), recv(t, "the duplicate", dup)
	if l.err != nil || d.err != nil {
		t.Fatalf("running execution failed across Close: leader %v, duplicate %v", l.err, d.err)
	}
	lb, _ := json.Marshal(l.resp)
	db, _ := json.Marshal(d.resp)
	if string(lb) != string(db) {
		t.Fatal("duplicate's response differs from the leader's")
	}
	<-closed
	if _, _, err := s.Handle(gnmReq("edge", "pr", 3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("request after Close: err %v, want ErrClosed", err)
	}
}
