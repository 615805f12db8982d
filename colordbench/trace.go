package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanName says which boundary a span was recorded at. Every span is taken
// from the benchmark's own files, around a call into a layer's public
// surface: the client around a request, a middleware around a node's or the
// gateway's http.Handler, a RoundTripper around the gateway's upstream call.
type spanName uint8

const (
	spClient   spanName = iota // benchmark client: request written → response read
	spColor                    // node handler, POST /v1/color
	spMutate                   // node handler, POST /v1/mutate
	spGateway                  // gateway handler, POST /v1/color
	spUpstream                 // gateway → node round trip, body included
)

var spanNames = [...]string{"client", "service.color", "service.mutate", "cluster.gateway", "cluster.upstream"}

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch. conn identifies the benchmark client connection the span belongs
// to (-1: not a client connection); key is a body hash that pairs a gateway
// span with its upstream call.
type span struct {
	start, end int64
	parent     int32
	key        uint32
	conn       int16
	name       spanName
}

func (s span) dur() int64 { return s.end - s.start }

// maxSpans bounds the in-memory span store (32 MiB); spans past it are
// counted and dropped, so a fast workload cannot grow the client without
// limit.
const maxSpans = 1 << 20

// tracer keeps spans in memory while on is set and writes them out once the
// benchmark is done.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu      sync.Mutex
	spans   []span
	dropped int64

	connMu sync.RWMutex
	conns  map[string]int16
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), conns: map[string]int16{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// register names a client connection by its local address: the server sees
// the same string as r.RemoteAddr, which is how a handler span finds the
// client span it serves.
func (t *tracer) register(local string) int16 {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	id, ok := t.conns[local]
	if !ok {
		id = int16(len(t.conns))
		t.conns[local] = id
	}
	return id
}

func (t *tracer) connOf(remote string) int16 {
	t.connMu.RLock()
	defer t.connMu.RUnlock()
	if id, ok := t.conns[remote]; ok {
		return id
	}
	return -1
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func bodyKey(b []byte) uint32 {
	h := fnv.New32a()
	h.Write(b)
	return h.Sum32()
}

// wrapNode times a colord node's POST handlers. Other routes (the SSE
// stream, /healthz) pass through untimed: a stream's span would be its
// whole lifetime.
func (t *tracer) wrapNode(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		name := spColor
		if r.URL.Path == "/v1/mutate" {
			name = spMutate
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{start: start, end: t.now(), parent: -1, conn: t.connOf(r.RemoteAddr), name: name})
	})
}

// wrapGateway times the gateway's POST handler and hashes the request body
// so the upstream call made on its behalf can be paired with it.
func (t *tracer) wrapGateway(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
		t.add(span{start: start, end: t.now(), parent: -1, key: bodyKey(body), conn: t.connOf(r.RemoteAddr), name: spGateway})
	})
}

// timedTransport records one spUpstream span per gateway POST, from the
// start of the round trip to the close of the response body (the gateway
// copies the body through before closing it).
type timedTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method != http.MethodPost || !tt.t.on.Load() || r.GetBody == nil {
		return tt.base.RoundTrip(r)
	}
	rc, err := r.GetBody()
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(rc)
	if err != nil {
		return nil, err
	}
	start := tt.t.now()
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &spanCloser{ReadCloser: resp.Body, t: tt.t, s: span{start: start, parent: -1, key: bodyKey(body), conn: -1, name: spUpstream}}
	return resp, nil
}

type spanCloser struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (c *spanCloser) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(func() {
		c.s.end = c.t.now()
		c.t.add(c.s)
	})
	return err
}

// link sets each span's parent: a handler span's parent is the client span
// on the same connection whose interval contains it; an upstream span's
// parent is the gateway span with the same body key that contains it.
func link(spans []span) {
	byName := map[spanName][]int{}
	for i := range spans {
		spans[i].parent = -1
		byName[spans[i].name] = append(byName[spans[i].name], i)
	}
	for _, idx := range byName {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
	}
	clientsByConn := map[int16][]int{}
	for _, i := range byName[spClient] {
		clientsByConn[spans[i].conn] = append(clientsByConn[spans[i].conn], i)
	}
	for _, name := range []spanName{spColor, spMutate, spGateway} {
		for _, i := range byName[name] {
			s := spans[i]
			cs := clientsByConn[s.conn]
			// The last client span on this connection starting at or before
			// the handler span: clients are closed loops, one request at a
			// time per connection.
			j := sort.Search(len(cs), func(k int) bool { return spans[cs[k]].start > s.start }) - 1
			if j >= 0 && spans[cs[j]].end >= s.end {
				spans[i].parent = int32(cs[j])
			}
		}
	}
	gws := byName[spGateway]
	for _, i := range byName[spUpstream] {
		s := spans[i]
		j := sort.Search(len(gws), func(k int) bool { return spans[gws[k]].start > s.start }) - 1
		for ; j >= 0; j-- {
			g := spans[gws[j]]
			if g.key == s.key && g.end >= s.end {
				spans[i].parent = int32(gws[j])
				break
			}
		}
	}
}

// childDurations maps each parent span index to the summed duration of its
// children of the given name.
func childDurations(spans []span, name spanName) map[int32]int64 {
	out := map[int32]int64{}
	for _, s := range spans {
		if s.name == name && s.parent >= 0 {
			out[s.parent] += s.dur()
		}
	}
	return out
}

// writeSpans writes the spans as gzip-compressed tab-separated rows:
// id, parent, name, start_ns, end_ns, conn.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\tname\tstart_ns\tend_ns\tconn")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%d\n", i, s.parent, spanNames[s.name], s.start, s.end, s.conn)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
