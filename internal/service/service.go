// Package service is colord's engine room: a long-running coloring service
// on top of the deterministic dist runtime.
//
// A request names a generated graph (exp.GraphSpec), a coloring kind (edge
// or vertex), an algorithm, and a seed. The service resolves it against a
// bounded LRU of built graphs, then serves it through four layers:
//
//   - a wire fast path: raw request bytes map straight to prerendered
//     response bytes in a lock-striped LRU (shardedLRU), so a repeat request
//     is served with zero allocations and no JSON work in either direction;
//   - a deterministic result cache of encoded records keyed by a canonical
//     hash of the graph fingerprint and the output-affecting parameters —
//     the runtime is deterministic, so a key has exactly one possible
//     record, and a hit costs zero runtime rounds (the slow lane renders
//     the response body from the record once per request);
//   - single-flight: concurrent misses for the same key coalesce onto one
//     execution, which runs on the first caller's own goroutine;
//   - a bounded worker stage: at most Workers executions run at once, each
//     a one-shot dist.RunAlgo on the cached graph, so no per-vertex runtime
//     state outlives its run.
//
// Responses are byte-identical to a direct dist.Run of the same request —
// fast-lane hits, cache hits, coalesced waiters, and fresh computations
// alike — which TestServiceMatchesDirect pins adversarially under -race.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/algreg"
	"repro/internal/dist"
)

// Config sizes the service. The zero value is usable: every field has a
// working default.
type Config struct {
	// Workers bounds concurrent algorithm executions. <= 0 means 4.
	Workers int
	// Engine is the default dist scheduler (requests may override).
	Engine dist.Engine
	// CacheEntries bounds the result cache and, separately, the wire
	// fast-path cache mapping raw request bytes to prerendered responses
	// (default 4096 each). A bound only: each cache's memory grows with the
	// entries it holds.
	CacheEntries int
	// GraphEntries bounds the built-graph LRU (default 64); like
	// CacheEntries, a bound, not a reservation.
	GraphEntries int
	// Sessions bounds the live dynamic graph sessions (default 32); the
	// coldest session is evicted — state and all — when the table is full.
	Sessions int
	// MaxSubscribers caps concurrent streaming subscribers service-wide
	// (default 4096): the global admission bound on fan-out.
	MaxSubscribers int
	// SessionSubscribers caps subscribers per session (default 1024), so one
	// hot session cannot monopolize the global cap.
	SessionSubscribers int
	// FeedBuffer is each feed's delta backlog in frames (default 256): how
	// far a subscriber may lag before it is dropped with an overflow event.
	// It is also the Last-Event-ID resume window: a reconnect within this
	// many commits replays the gap exactly.
	FeedBuffer int
	// WALDir, when set, makes dynamic sessions durable: every committed
	// mutation appends to a per-session write-ahead log under this
	// directory, and a session whose log exists is rebuilt from it — on
	// restart, after eviction, even when the create request carries no base
	// spec. Empty disables durability (sessions are memory-only, as before).
	WALDir string
	// WALSync fsyncs the session log on every commit (survive power loss,
	// not just process death) at a large per-mutation latency cost.
	WALSync bool
	// RemoteFill, when set, is consulted on a result-cache miss before
	// computing locally: given the request's graph name and canonical cache
	// key, it may return the encoded cache record from a peer that already
	// has it (cluster.Filler does, from the key's rendezvous owner). Invalid
	// or nil returns fall through to local computation — the fill is an
	// optimization, never a correctness dependency.
	RemoteFill func(graphName, key string) []byte
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.GraphEntries <= 0 {
		c.GraphEntries = 64
	}
	if c.Sessions <= 0 {
		c.Sessions = 32
	}
	if c.MaxSubscribers <= 0 {
		c.MaxSubscribers = 4096
	}
	if c.SessionSubscribers <= 0 {
		c.SessionSubscribers = 1024
	}
	if c.FeedBuffer <= 0 {
		c.FeedBuffer = 256
	}
	return c
}

// Outcome says how a response was produced; the HTTP layer reports it in the
// X-Colord-Cache header (never in the body, which stays byte-identical).
type Outcome string

const (
	// Hit: served from the result cache (or the wire fast path in front of
	// it), zero runtime rounds.
	Hit Outcome = "hit"
	// Coalesced: attached to another request's in-flight execution.
	Coalesced Outcome = "coalesced"
	// Miss: this request's execution computed the result.
	Miss Outcome = "miss"
)

// flight is one in-flight execution of a key, run by the request that missed
// first. Coalesced requests wait on done, then read the encoded record enc
// or err.
type flight struct {
	done chan struct{}
	enc  []byte
	err  error
}

// ServiceStats is the /statz snapshot. Counters are striped internally;
// Stats sums each stripe with single atomic loads into this one local
// struct, so a snapshot is coherent (no field is read twice) and monotone
// across snapshots.
type ServiceStats struct {
	// Engine is the service's default dist scheduler (requests may override
	// per-call; dynamic sessions always repair on the compiled engine).
	Engine    string `json:"engine"`
	Requests  int64  `json:"requests"`
	Hits      int64  `json:"hits"`
	Coalesced int64  `json:"coalesced"`
	Runs      int64  `json:"runs"`
	Errors    int64  `json:"errors"`
	// BadRequests counts bodies (and subscribe queries) that failed to
	// parse: 400s that never became requests, so they are deliberately
	// outside the Requests/outcome accounting — this is the counter that
	// makes a client spraying garbage visible.
	BadRequests int64 `json:"badRequests"`
	Mutations   int64 `json:"mutations"`
	// Subscribers is the current streaming-subscriber gauge; Subscribes,
	// Delivered, and Dropped are the monotone feed counters (accepted
	// subscriptions, delta frames written, subscribers dropped by
	// overflow).
	Subscribers int64 `json:"subscribers"`
	Subscribes  int64 `json:"subscribes"`
	Delivered   int64 `json:"delivered"`
	Dropped     int64 `json:"dropped"`
	// The cluster/durability plane: Replayed counts WAL records replayed
	// into recovered sessions, WALAppends/WALErrors the per-commit log
	// appends and failures, Filled the result-cache misses satisfied by a
	// peer's cache instead of a local run.
	Replayed   int64             `json:"replayed,omitempty"`
	WALAppends int64             `json:"walAppends,omitempty"`
	WALErrors  int64             `json:"walErrors,omitempty"`
	Filled     int64             `json:"filled,omitempty"`
	Cache      CacheStats        `json:"cache"`
	Fast       CacheStats        `json:"fastCache"`
	Sessions   []SessionSnapshot `json:"sessions"`
	// Algs is the per-algorithm plane: one row per servable registry entry,
	// in registry order. Requests counts every request resolved to the
	// algorithm (hit or miss); ColorsUsed/PaletteBound are last-run gauges,
	// 0 until the first fresh run or peer fill lands.
	Algs []AlgStats `json:"algs"`
}

// AlgStats is one per-algorithm /statz row.
type AlgStats struct {
	Kind         string `json:"kind"`
	Alg          string `json:"alg"`
	Quality      string `json:"quality"`
	Requests     int64  `json:"requests"`
	ColorsUsed   int64  `json:"colorsUsed"`
	PaletteBound int64  `json:"paletteBound"`
}

// Service is the coloring service. Create with New, serve with Handle or
// HandleRaw (or the HTTP handler from Handler), stop with Close.
type Service struct {
	cfg Config
	// cache is the result cache: canonical key → encoded record.
	// Determinism makes it trivially coherent: a key has exactly one
	// possible record, so eviction is purely a capacity matter, and
	// concurrent fills of one key converge (first-wins) on a single entry.
	cache *shardedLRU[[]byte]
	// fast is the wire fast path (fastpath.go): raw request bytes →
	// rendered response.
	fast *shardedLRU[fastEntry]
	// graphs holds the built graphs by canonical spec string, on one shard:
	// a strict LRU over GraphEntries.
	graphs   *shardedLRU[*graphEntry]
	sessions *sessionTable
	hub      *subHub
	sem      chan struct{}

	mu       sync.Mutex
	inflight map[string]*flight
	closed   bool

	counters serviceCounters
	// algGauges holds the last measured palette figures per servable
	// algorithm (ServeIndex slots), written whenever a fresh run or a peer
	// fill produces a record. Gauges, not counters: /statz shows the most
	// recent observation, which is what a palette-quality dashboard wants.
	algGauges [algreg.MaxServable]struct {
		colorsUsed, paletteBound atomic.Int64
	}

	// stop is closed by Close: misses still waiting for a worker slot give
	// up with ErrClosed. running counts the executions Close waits out, so
	// no run outlives it.
	stop    chan struct{}
	running sync.WaitGroup
}

// New starts a Service with the given configuration.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		cache:    newShardedLRU[[]byte](cfg.CacheEntries, 0),
		fast:     newShardedLRU[fastEntry](cfg.CacheEntries, 0),
		graphs:   newShardedLRU[*graphEntry](cfg.GraphEntries, 1),
		sessions: newSessionTable(cfg.Sessions),
		hub:      newSubHub(cfg.MaxSubscribers, cfg.SessionSubscribers, cfg.FeedBuffer),
		sem:      make(chan struct{}, cfg.Workers),
		inflight: make(map[string]*flight),
		stop:     make(chan struct{}),
	}
	// A session's end — eviction, drop, or shutdown — ends its feed:
	// subscribers get an explicit close event, never a silent stall.
	s.sessions.onClose = s.hub.closeFeed
	return s
}

// Close waits out the executions already running, then closes every session
// and subscriber feed. Handle calls racing with Close may return ErrClosed.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.running.Wait()
	s.sessions.close()
	// After the sessions: their closes already ended their feeds via the
	// onClose hook; this sweeps any remaining feed and refuses new
	// subscribers for good.
	s.hub.close()
}

// ErrClosed is returned by Handle after Close.
var ErrClosed = errors.New("service: closed")

// badRequestError marks a request whose JSON failed to decode; the HTTP
// layer maps it to 400. A body that never parsed never became a request, so
// these count in badRequests only — never in requests or errors — keeping
// the requests ≥ outcomes invariant intact while still surfacing a client
// spraying garbage at the fast lane.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return "bad request body: " + e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

// Handle serves one request: cache lookup, then coalescing onto an in-flight
// execution, then a fresh execution on the calling goroutine. Safe for
// arbitrary concurrency.
func (s *Service) Handle(req Request) (*Response, Outcome, error) {
	c, enc, outcome, err := s.handleCore(req)
	if err != nil {
		return nil, "", err
	}
	rec, err := decodeRecord(enc)
	if err != nil {
		s.counters.stripe(c.hash).errors.Add(1)
		return nil, "", err
	}
	return rec.response(c.key, c.req.Graph.String()), outcome, nil
}

// HandleDetail serves one request through the same core path as Handle but
// renders the ?detail=1 envelope: resolved algorithm, quality tier, palette
// bound, and measured color count alongside the coloring. Detail requests
// share the result cache with plain ones (the envelope is a render choice,
// not a different computation) but bypass the wire fast path.
func (s *Service) HandleDetail(req Request) (*DetailResponse, Outcome, error) {
	c, enc, outcome, err := s.handleCore(req)
	if err != nil {
		return nil, "", err
	}
	rec, err := decodeRecord(enc)
	if err != nil {
		s.counters.stripe(c.hash).errors.Add(1)
		return nil, "", err
	}
	return rec.detail(c.key, c.req.Graph.String()), outcome, nil
}

// HandleRaw serves one request straight from its raw JSON bytes. A repeat
// body is a wire fast-path hit: one hash, one striped lookup, and the
// prerendered response bytes back — zero allocations, no JSON decoded or
// encoded, no global lock. First sightings take the slow lane (full decode,
// canonical cache, render of the record) and prime the fast path on the way
// out. The returned body is exactly what the HTTP layer writes (json.Encoder
// form, trailing newline included) and must be treated as read-only.
func (s *Service) HandleRaw(body []byte) (resp []byte, key string, outcome Outcome, err error) {
	h := cacheHash(body)
	if e, ok := s.fast.getBytesHash(body, h); ok {
		ctr := s.counters.stripe(h)
		ctr.requests.Add(1)
		ctr.hits.Add(1)
		return e.body, e.key, Hit, nil
	}
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.counters.stripe(h).badRequests.Add(1)
		return nil, "", "", &badRequestError{err}
	}
	c, enc, outcome, err := s.handleCore(req)
	if err != nil {
		return nil, "", "", err
	}
	b, err := renderBody(enc, c.key, c.req.Graph.String())
	if err != nil {
		s.counters.stripe(c.hash).errors.Add(1)
		return nil, "", "", err
	}
	// string(body) copies the request bytes exactly once, at fill time — the
	// hit path never copies. The accounted size covers the key copy and the
	// body.
	s.fast.putHash(string(body), h, fastEntry{body: b, key: c.key}, len(body)+len(b))
	return b, c.key, outcome, nil
}

// handleCore is the shared request path behind Handle and HandleRaw:
// resolve, result-cache lookup, then single-flight execution on the calling
// goroutine. It owns all counter accounting for the request, and returns
// the key's encoded record.
func (s *Service) handleCore(req Request) (*canonReq, []byte, Outcome, error) {
	c, err := s.resolve(req)
	if err != nil {
		ctr := &s.counters.stripes[0]
		ctr.requests.Add(1)
		ctr.errors.Add(1)
		return nil, nil, "", err
	}
	ctr := s.counters.stripe(c.hash)
	ctr.requests.Add(1)
	ctr.algRequests[c.alg.ServeIndex()].Add(1)
	if enc, ok := s.cache.getHash(c.key, c.hash); ok {
		ctr.hits.Add(1)
		return c, enc, Hit, nil
	}

	outcome := Coalesced
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ctr.errors.Add(1)
		return nil, nil, "", ErrClosed
	}
	f, ok := s.inflight[c.key]
	if !ok {
		f = &flight{done: make(chan struct{})}
		s.inflight[c.key] = f
		s.running.Add(1)
		outcome = Miss
	}
	s.mu.Unlock()
	if outcome == Coalesced {
		ctr.coalesced.Add(1)
		<-f.done
	} else {
		s.lead(c, f)
	}
	if f.err != nil {
		ctr.errors.Add(1)
		return nil, nil, "", f.err
	}
	return c, f.enc, outcome, nil
}

// errAbandoned is what coalesced waiters see if their leader's execution
// panicked instead of returning.
var errAbandoned = errors.New("service: execution abandoned")

// lead executes the flight's key and lands the result for every coalesced
// waiter. The landing is deferred: net/http recovers a panicking handler, and
// its waiters and Close must not hang on it.
func (s *Service) lead(c *canonReq, f *flight) {
	f.err = errAbandoned
	defer func() {
		s.mu.Lock()
		delete(s.inflight, c.key)
		s.mu.Unlock()
		close(f.done)
		s.running.Done()
	}()
	f.enc, f.err = s.exec(c)
}

// exec computes one key on the bounded worker stage: a cache recheck, then a
// peer fill, then a local run. It returns the key's encoded record.
func (s *Service) exec(c *canonReq) ([]byte, error) {
	select {
	case s.sem <- struct{}{}:
	case <-s.stop:
		return nil, ErrClosed
	}
	defer func() { <-s.sem }()
	// A flight for this key may have completed and cached between our
	// cache miss and this execution; determinism makes recomputing merely
	// wasteful, so look once more before running.
	enc, ok := s.cache.getHash(c.key, c.hash)
	if !ok && s.cfg.RemoteFill != nil {
		// Cross-node fill: a miss here may be a hit in the key's rendezvous
		// owner's cache. Determinism makes a fetched record as good as a
		// local run — same key, same bytes — and the decode guard means a
		// corrupt or impostor response degrades to computing, never to
		// serving bad bytes.
		if raw := s.cfg.RemoteFill(c.req.Graph.String(), c.key); raw != nil {
			if rec, err := decodeRecord(raw); err == nil {
				s.counters.stripe(c.hash).filled.Add(1)
				s.observePalette(c, rec)
				enc = s.cache.putHash(c.key, c.hash, raw, len(raw))
				ok = true
			}
		}
	}
	if !ok {
		s.counters.stripe(c.hash).runs.Add(1)
		rec, err := c.runner(c)
		if err != nil {
			return nil, err
		}
		s.observePalette(c, rec)
		enc = rec.encode()
		enc = s.cache.putHash(c.key, c.hash, enc, len(enc))
	}
	return enc, nil
}

// observePalette stores a record's measured palette figures into the
// algorithm's /statz gauges.
func (s *Service) observePalette(c *canonReq, rec *record) {
	g := &s.algGauges[c.alg.ServeIndex()]
	g.colorsUsed.Store(int64(rec.colorsUsed))
	g.paletteBound.Store(int64(rec.palette))
}

// CachedRecord returns the encoded cache record under key, if the result
// cache holds it. It never computes — this is the peer-fill read side
// (GET /internal/record): a peer asking "do you already have this?" must
// not be able to make this node do work.
func (s *Service) CachedRecord(key string) ([]byte, bool) {
	return s.cache.get(key)
}

// Stats snapshots the service counters, caches, sessions, and per-algorithm
// gauges.
func (s *Service) Stats() ServiceStats {
	t := s.counters.totals()
	servable := algreg.Servable()
	algs := make([]AlgStats, len(servable))
	for i, a := range servable {
		algs[i] = AlgStats{
			Kind:         a.Kind,
			Alg:          a.Name,
			Quality:      a.Quality,
			Requests:     t.algRequests[a.ServeIndex()],
			ColorsUsed:   s.algGauges[a.ServeIndex()].colorsUsed.Load(),
			PaletteBound: s.algGauges[a.ServeIndex()].paletteBound.Load(),
		}
	}
	return ServiceStats{
		Engine:      s.cfg.Engine.String(),
		Requests:    t.requests,
		Hits:        t.hits,
		Coalesced:   t.coalesced,
		Runs:        t.runs,
		Errors:      t.errors,
		BadRequests: t.badRequests,
		Mutations:   t.mutations,
		Subscribers: int64(s.hub.subscribers()),
		Subscribes:  t.subscribes,
		Delivered:   t.delivered,
		Dropped:     t.dropped,
		Replayed:    t.replayed,
		WALAppends:  t.walAppends,
		WALErrors:   t.walErrors,
		Filled:      t.filled,
		Cache:       s.cache.snapshot(),
		Fast:        s.fast.snapshot(),
		Sessions:    s.sessions.snapshot(),
		Algs:        algs,
	}
}
