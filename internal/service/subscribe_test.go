package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
)

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id    int64
	event string
	data  []byte
}

// readSSE parses the next SSE frame off the stream (lines until a blank
// terminator). Returns io.EOF cleanly when the stream ends first.
func readSSE(r *bufio.Reader) (sseEvent, error) {
	ev := sseEvent{id: -1}
	seen := false
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\n")
		if line == "" {
			if seen {
				return ev, nil
			}
			continue
		}
		seen = true
		switch {
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseInt(line[len("id: "):], 10, 64)
			if err != nil {
				return ev, fmt.Errorf("bad id line %q: %w", line, err)
			}
			ev.id = id
		case strings.HasPrefix(line, "event: "):
			ev.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(line[len("data: "):])
		default:
			return ev, fmt.Errorf("unparsed SSE line %q", line)
		}
	}
}

// TestSubscribeStreamsDeltas is the end-to-end streaming contract over real
// HTTP, for one subscriber and for a fan-out of 50 on the same session: each
// subscriber receives a hello snapshot, then one delta per committed
// mutation — in commit order, consecutive seq, each carrying the same
// fingerprint the mutate response reported, with the changed set naming the
// inserted edge.
func TestSubscribeStreamsDeltas(t *testing.T) {
	for _, subs := range []int{1, 50} {
		t.Run(fmt.Sprintf("subs=%d", subs), func(t *testing.T) {
			testSubscribeStreamsDeltas(t, subs)
		})
	}
}

func testSubscribeStreamsDeltas(t *testing.T, subs int) {
	s := New(testConfig())
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	base := exp.GraphSpec{Family: "cycle", N: 16}
	if _, _, err := s.Mutate(MutateRequest{Session: "feed", Base: &base}); err != nil {
		t.Fatal(err)
	}

	// Every subscriber has its hello before the first commit, so each must
	// see every delta. The deadline turns a lost frame into a failed read
	// instead of a hung test.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	streams := make([]*bufio.Reader, subs)
	hellos := make([]HelloEvent, subs)
	for k := range streams {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/subscribe?session=feed", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("subscriber %d: status %d, want 200", k, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("subscriber %d: content type %q", k, ct)
		}
		streams[k] = bufio.NewReader(resp.Body)
		ev, err := readSSE(streams[k])
		if err != nil {
			t.Fatal(err)
		}
		if ev.event != "hello" {
			t.Fatalf("subscriber %d: first event %q, want hello", k, ev.event)
		}
		if err := json.Unmarshal(ev.data, &hellos[k]); err != nil {
			t.Fatal(err)
		}
		if h := hellos[k]; h.Session != "feed" || h.N != 16 || h.M != 16 {
			t.Fatalf("subscriber %d: hello %+v", k, h)
		}
	}

	// Alternate inserting and deleting a chord: every commit must stream.
	ops := []exp.Mutation{
		{Op: exp.OpInsert, U: 0, V: 5},
		{Op: exp.OpInsert, U: 2, V: 9},
		{Op: exp.OpDelete, U: 0, V: 5},
		{Op: exp.OpInsert, U: 4, V: 11},
	}
	fingerprints := make([]string, len(ops))
	for i, op := range ops {
		r, _, err := s.Mutate(MutateRequest{Session: "feed", Ops: []exp.Mutation{op}})
		if err != nil {
			t.Fatal(err)
		}
		fingerprints[i] = r.Fingerprint
	}

	for k, rd := range streams {
		for i, op := range ops {
			ev, err := readSSE(rd)
			if err != nil {
				t.Fatalf("subscriber %d: %v", k, err)
			}
			if ev.event != "delta" {
				t.Fatalf("subscriber %d, delta %d: event %q", k, i, ev.event)
			}
			var d DeltaEvent
			if err := json.Unmarshal(ev.data, &d); err != nil {
				t.Fatal(err)
			}
			if want := hellos[k].Seq + int64(i) + 1; d.Seq != want {
				t.Fatalf("subscriber %d, delta %d: seq %d, want %d", k, i, d.Seq, want)
			}
			if ev.id != d.Seq {
				t.Fatalf("subscriber %d, delta %d: SSE id %d != seq %d", k, i, ev.id, d.Seq)
			}
			if d.Op != op {
				t.Fatalf("subscriber %d, delta %d: op %+v, want %+v", k, i, d.Op, op)
			}
			if d.Fingerprint != fingerprints[i] {
				t.Fatalf("subscriber %d, delta %d: fingerprint %q, mutate reported %q", k, i, d.Fingerprint, fingerprints[i])
			}
			if op.Op == exp.OpInsert {
				found := false
				for _, c := range d.Changed {
					if c.U == op.U && c.V == op.V {
						found = true
					}
				}
				if !found {
					t.Fatalf("subscriber %d, delta %d: inserted edge (%d,%d) not in changed set %+v", k, i, op.U, op.V, d.Changed)
				}
			}
			if d.TS == 0 {
				t.Fatalf("subscriber %d, delta %d: zero commit timestamp", k, i)
			}
		}
	}

	st := s.Stats()
	if st.Subscribers != int64(subs) || st.Subscribes != int64(subs) {
		t.Fatalf("gauge %d / subscribes %d, want %d/%d", st.Subscribers, st.Subscribes, subs, subs)
	}
	if st.Delivered < int64(subs*len(ops)) {
		t.Fatalf("delivered %d, want >= %d", st.Delivered, subs*len(ops))
	}
}

// TestSubscribeDisconnectReapsSubscriber: a client that vanishes mid-stream
// must release its slot — the handler's blocking wait observes the request
// context and unsubscribes.
func TestSubscribeDisconnectReapsSubscriber(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	base := exp.GraphSpec{Family: "cycle", N: 12}
	if _, _, err := s.Mutate(MutateRequest{Session: "gone", Base: &base}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/subscribe?session=gone")
	if err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(resp.Body)
	if ev, err := readSSE(rd); err != nil || ev.event != "hello" {
		t.Fatalf("hello: %v %+v", err, ev)
	}
	if got := s.Stats().Subscribers; got != 1 {
		t.Fatalf("subscribers %d, want 1", got)
	}
	resp.Body.Close() // abandon the stream mid-subscription

	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Subscribers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber not reaped after disconnect: %d", s.Stats().Subscribers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubscribeSessionEvictionClosesStream: when a session is evicted from
// the LRU, its live subscribers get an explicit close event and the stream
// ends — never a silent stall.
func TestSubscribeSessionEvictionClosesStream(t *testing.T) {
	cfg := testConfig()
	cfg.Sessions = 2
	s := New(cfg)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	base := exp.GraphSpec{Family: "cycle", N: 12}
	if _, _, err := s.Mutate(MutateRequest{Session: "old", Base: &base}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/subscribe?session=old")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	if ev, err := readSSE(rd); err != nil || ev.event != "hello" {
		t.Fatalf("hello: %v %+v", err, ev)
	}

	// Two newer sessions push "old" off the 2-entry table.
	for _, name := range []string{"new1", "new2"} {
		if _, _, err := s.Mutate(MutateRequest{Session: name, Base: &base}); err != nil {
			t.Fatal(err)
		}
	}
	ev, err := readSSE(rd)
	if err != nil {
		t.Fatal(err)
	}
	if ev.event != "close" {
		t.Fatalf("event %q, want close", ev.event)
	}
	var ce CloseEvent
	if err := json.Unmarshal(ev.data, &ce); err != nil {
		t.Fatal(err)
	}
	if ce.Session != "old" {
		t.Fatalf("close event %+v", ce)
	}
	if _, err := readSSE(rd); err != io.EOF {
		t.Fatalf("stream after close event: %v, want EOF", err)
	}
}

// TestSubscribeAdmissionErrors covers the HTTP admission surface: missing
// query (400, counted as a bad request), unknown session (404), and the
// per-session quota (429).
func TestSubscribeAdmissionErrors(t *testing.T) {
	cfg := testConfig()
	cfg.SessionSubscribers = 1
	s := New(cfg)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := get("/v1/subscribe")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no session param: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	if got := s.Stats().BadRequests; got != 1 {
		t.Fatalf("badRequests %d, want 1", got)
	}
	resp = get("/v1/subscribe?session=nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	base := exp.GraphSpec{Family: "cycle", N: 12}
	if _, _, err := s.Mutate(MutateRequest{Session: "quota", Base: &base}); err != nil {
		t.Fatal(err)
	}
	first := get("/v1/subscribe?session=quota")
	defer first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first subscribe: status %d", first.StatusCode)
	}
	// The first stream is live once its hello arrives; the quota is 1.
	if ev, err := readSSE(bufio.NewReader(first.Body)); err != nil || ev.event != "hello" {
		t.Fatalf("hello: %v %+v", err, ev)
	}
	resp = get("/v1/subscribe?session=quota")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota subscribe: status %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()
}

// gatedWriter is a ResponseWriter whose Writes block until released — the
// deterministic stand-in for a slow consumer. Flusher is implemented so
// serveSubscribe accepts it.
type gatedWriter struct {
	header http.Header
	gate   chan struct{} // closed to release writes
	mu     sync.Mutex
	buf    []byte
}

func newGatedWriter() *gatedWriter {
	return &gatedWriter{header: make(http.Header), gate: make(chan struct{})}
}

func (g *gatedWriter) Header() http.Header { return g.header }
func (g *gatedWriter) WriteHeader(int)     {}
func (g *gatedWriter) Flush()              {}
func (g *gatedWriter) Write(p []byte) (int, error) {
	<-g.gate
	g.mu.Lock()
	g.buf = append(g.buf, p...)
	g.mu.Unlock()
	return len(p), nil
}
func (g *gatedWriter) output() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return string(g.buf)
}

// TestSubscribeOverflowDrop forces the slow-consumer path deterministically:
// the subscriber's writer is gated shut while the writer side commits more
// mutations than the feed buffer holds, so when the handler resumes it must
// drop the subscriber with an overflow event naming the exact missed count —
// and the mutating writer must never have blocked.
func TestSubscribeOverflowDrop(t *testing.T) {
	cfg := testConfig()
	cfg.FeedBuffer = 2
	s := New(cfg)
	defer s.Close()

	base := exp.GraphSpec{Family: "cycle", N: 12}
	if _, _, err := s.Mutate(MutateRequest{Session: "slow", Base: &base}); err != nil {
		t.Fatal(err)
	}

	w := newGatedWriter()
	req := httptest.NewRequest("GET", "/v1/subscribe?session=slow", nil)
	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.serveSubscribe(w, req.WithContext(ctx))
	}()

	// The subscription registers before the hello write blocks on the gate.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Subscribers != 1 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}

	// Five commits against a 2-frame buffer: the first three are gone.
	ops := []exp.Mutation{
		{Op: exp.OpInsert, U: 0, V: 5},
		{Op: exp.OpInsert, U: 1, V: 6},
		{Op: exp.OpInsert, U: 2, V: 7},
		{Op: exp.OpInsert, U: 3, V: 8},
		{Op: exp.OpInsert, U: 4, V: 9},
	}
	start := time.Now()
	for _, op := range ops {
		if _, _, err := s.Mutate(MutateRequest{Session: "slow", Ops: []exp.Mutation{op}}); err != nil {
			t.Fatal(err)
		}
	}
	// The contract's teeth: all five commits completed while the subscriber
	// could not accept a single byte.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("writer blocked on a stuck subscriber: %v for %d ops", elapsed, len(ops))
	}

	close(w.gate)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not finish after release")
	}
	out := w.output()
	if !strings.Contains(out, "event: overflow") {
		t.Fatalf("no overflow event in output:\n%s", out)
	}
	var ov OverflowEvent
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, "missed") {
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ov); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ov.Missed != 3 {
		t.Fatalf("missed %d, want 3 (5 commits, 2 buffered)", ov.Missed)
	}
	st := s.Stats()
	if st.Dropped != 1 {
		t.Fatalf("dropped %d, want 1", st.Dropped)
	}
	if st.Subscribers != 0 {
		t.Fatalf("subscribers %d after drop, want 0", st.Subscribers)
	}
}

// TestBadRequestAccounting pins the satellite counter: unparseable bodies
// are visible in badRequests and deliberately absent from requests — the
// requests >= outcomes invariant is not perturbed by garbage.
func TestBadRequestAccounting(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if _, _, _, err := s.HandleRaw([]byte("{not json")); err == nil {
		t.Fatal("HandleRaw accepted garbage")
	}
	st := s.Stats()
	if st.BadRequests != 1 {
		t.Fatalf("badRequests %d after raw garbage, want 1", st.BadRequests)
	}
	if st.Requests != 0 {
		t.Fatalf("requests %d, want 0 (garbage never became a request)", st.Requests)
	}

	for i, body := range []string{"{broken", `{"unknown_field": 1}`} {
		resp, err := http.Post(srv.URL+"/v1/mutate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("mutate body %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	if got := s.Stats().BadRequests; got != 3 {
		t.Fatalf("badRequests %d after mutate garbage, want 3", got)
	}
}
