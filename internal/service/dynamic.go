package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/algreg"
	"repro/internal/dist"
	"repro/internal/dynamic"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/wal"
)

// MutateRequest drives one dynamic graph session: a named, server-resident
// mutable graph whose edge coloring the service maintains incrementally
// (dynamic.Maintainer). A request either mutates the session (Ops non-empty)
// or reads it (Ops empty); reads with Colors set return the full maintained
// coloring from one atomic snapshot of the maintainer.
type MutateRequest struct {
	// Session names the dynamic graph. Sessions live in a bounded LRU;
	// evicting or closing one discards its state.
	Session string `json:"session"`
	// Base seeds the session's starting graph; required on first touch,
	// ignored once the session exists.
	Base *exp.GraphSpec `json:"base,omitempty"`
	// Ops are applied in order, one local repair each. An op list is not a
	// transaction: an invalid op (duplicate insert, delete of a non-edge)
	// fails the request at that op, earlier ops remain applied, and the
	// error names the failing op index.
	Ops []exp.Mutation `json:"ops,omitempty"`
	// Colors requests the maintained per-edge coloring (canonical edge-id
	// order of the current graph) in the response.
	Colors bool `json:"colors,omitempty"`
}

// MutateResponse reports the session state after the request. Mutating
// requests additionally carry the repair scope of this call and the
// session's cumulative totals; coloring reads carry only
// fingerprint-determined fields.
type MutateResponse struct {
	Session     string `json:"session"`
	Fingerprint string `json:"fingerprint"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	Delta       int    `json:"delta"`
	// Applied is the number of ops applied by this request.
	Applied int `json:"applied,omitempty"`
	// Repair aggregates the repair scope of this request's ops.
	Repair *dynamic.Report `json:"repair,omitempty"`
	// Totals is the session's cumulative accounting (not on coloring reads:
	// it is not a function of the fingerprint).
	Totals    *dynamic.Stats `json:"totals,omitempty"`
	NumColors int            `json:"numColors,omitempty"`
	Colors    []int          `json:"colors,omitempty"`
	// The ?detail=1 fields, absent otherwise so default bodies never change
	// shape: the maintainer's repair algorithm ("repair", tier "fast"), its
	// first-fit palette bound for the current graph (2Δ-1), and the measured
	// distinct-color count.
	Alg          string `json:"alg,omitempty"`
	Quality      string `json:"quality,omitempty"`
	PaletteBound int    `json:"paletteBound,omitempty"`
	ColorsUsed   int    `json:"colorsUsed,omitempty"`
}

// sessionTable is the bounded LRU of live dynamic sessions. Eviction closes
// the evicted maintainer and drops its state.
type sessionTable struct {
	mu      sync.Mutex
	cap     int
	order   *list.List
	entries map[string]*list.Element
	// onClose, when set, fires after a session's maintainer closes (evicted,
	// dropped, or table shutdown) — the hook that ends the session's
	// subscriber feed. Called without st.mu held; it must not call back into
	// the table.
	onClose func(name string)
}

type session struct {
	name string
	spec exp.GraphSpec

	once sync.Once  // builds mt
	mu   sync.Mutex // orders mt/err publication for statz peeks
	mt   *dynamic.Maintainer
	// wlog is the session's write-ahead log when durability is on; closed
	// with the maintainer. replayed counts the records recovered at build.
	wlog     *wal.Log
	replayed int
	err      error
}

// build runs the session's one-time maintainer construction. Request paths
// order through the Once; the extra publication under mu is for statz
// snapshots, which peek at sessions they never built. A WAL-recovered
// session's spec may differ from the create request's: the log header is
// the durable truth, so it wins.
func (s *session) build(f func(exp.GraphSpec) (*dynamic.Maintainer, *wal.Log, exp.GraphSpec, int, error)) {
	s.once.Do(func() {
		mt, wlog, spec, replayed, err := f(s.spec)
		s.mu.Lock()
		s.mt, s.wlog, s.replayed, s.err = mt, wlog, replayed, err
		if err == nil {
			s.spec = spec
		}
		s.mu.Unlock()
	})
}

// maintainer returns the published maintainer (nil while unbuilt).
func (s *session) maintainer() *dynamic.Maintainer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mt
}

func newSessionTable(capacity int) *sessionTable {
	if capacity <= 0 {
		capacity = 1
	}
	return &sessionTable{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element, capacity),
	}
}

// get returns the named session, creating it (and evicting the coldest if
// the table is full) when base is non-nil. Creation errors are surfaced
// once and the slot is freed, mirroring the graph cache.
func (st *sessionTable) get(name string, base *exp.GraphSpec, build func(exp.GraphSpec) (*dynamic.Maintainer, *wal.Log, exp.GraphSpec, int, error)) (*session, error) {
	st.mu.Lock()
	el, ok := st.entries[name]
	if !ok {
		if base == nil {
			st.mu.Unlock()
			return nil, fmt.Errorf("service: unknown session %q and no base spec to create it", name)
		}
		el = st.order.PushFront(&session{name: name, spec: *base})
		st.entries[name] = el
		for st.order.Len() > st.cap {
			last := st.order.Back()
			ent := last.Value.(*session)
			st.order.Remove(last)
			delete(st.entries, ent.name)
			defer st.closeSession(ent)
		}
	} else {
		st.order.MoveToFront(el)
	}
	s := el.Value.(*session)
	st.mu.Unlock()
	s.build(build)
	if s.err != nil {
		st.mu.Lock()
		if cur, ok := st.entries[name]; ok && cur.Value.(*session) == s {
			st.order.Remove(cur)
			delete(st.entries, name)
		}
		st.mu.Unlock()
	}
	return s, s.err
}

// closeSession closes a session that has already been unlinked from the
// table. Must be called without st.mu held: the onClose hook takes the
// hub's locks, and hub code never takes maintainer or table locks, so the
// lock order stays acyclic.
func (st *sessionTable) closeSession(s *session) {
	// Force the once so a concurrent creator cannot resurrect a closed
	// session's maintainer; losing the race just builds and closes.
	s.once.Do(func() {
		s.mu.Lock()
		s.err = fmt.Errorf("service: session %q evicted", s.name)
		s.mu.Unlock()
	})
	if mt := s.maintainer(); mt != nil {
		mt.Close()
	}
	// Close() waited out any in-flight mutation, so no commit hook can touch
	// the log after this point. The file itself stays: a WAL-backed session
	// resurrects from it on the next create or recovery.
	s.mu.Lock()
	wlog := s.wlog
	s.wlog = nil
	s.mu.Unlock()
	if wlog != nil {
		wlog.Close()
	}
	if st.onClose != nil {
		st.onClose(s.name)
	}
}

// lookup peeks at the named session without creating it or touching LRU
// order — the subscribe path's existence check.
func (st *sessionTable) lookup(name string) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.entries[name]; ok {
		return el.Value.(*session)
	}
	return nil
}

// drop removes the named session if it still maps to s, and closes it.
// Used when a failed repair poisons a maintainer: the name becomes
// recreatable instead of serving errors until eviction.
func (st *sessionTable) drop(name string, s *session) {
	st.mu.Lock()
	if cur, ok := st.entries[name]; ok && cur.Value.(*session) == s {
		st.order.Remove(cur)
		delete(st.entries, name)
	}
	st.mu.Unlock()
	st.closeSession(s)
}

// snapshot lists live sessions, most recently used first. The table lock
// covers only the walk: maintainer queries happen after release, so a
// session mid-repair can delay its own row but never block the mutate
// plane (which needs st.mu) behind it.
func (st *sessionTable) snapshot() []SessionSnapshot {
	st.mu.Lock()
	sessions := make([]*session, 0, st.order.Len())
	for el := st.order.Front(); el != nil; el = el.Next() {
		sessions = append(sessions, el.Value.(*session))
	}
	st.mu.Unlock()
	out := make([]SessionSnapshot, 0, len(sessions))
	for _, s := range sessions {
		s.mu.Lock()
		snap := SessionSnapshot{Session: s.name, Base: s.spec.String(), Replayed: int64(s.replayed)}
		mt, wlog := s.mt, s.wlog
		s.mu.Unlock()
		if wlog != nil {
			snap.WALSeq = wlog.LastSeq()
			snap.WALBytes = wlog.Size()
		}
		if mt != nil {
			fp, n, m, _ := mt.Shape()
			snap.N, snap.M = n, m
			snap.Fingerprint = fp.String()
			snap.Totals = mt.Stats()
			snap.Engine = mt.Engine().String()
		}
		out = append(out, snap)
	}
	return out
}

func (st *sessionTable) close() {
	st.mu.Lock()
	ents := make([]*session, 0, st.order.Len())
	for el := st.order.Front(); el != nil; el = el.Next() {
		ents = append(ents, el.Value.(*session))
	}
	st.order.Init()
	st.entries = map[string]*list.Element{}
	st.mu.Unlock()
	for _, s := range ents {
		st.closeSession(s)
	}
}

// SessionSnapshot reports one dynamic session in /statz.
type SessionSnapshot struct {
	Session string `json:"session"`
	Base    string `json:"base"`
	// Engine is the dist scheduler the session's repairs run on.
	Engine      string        `json:"engine,omitempty"`
	N           int           `json:"n"`
	M           int           `json:"m"`
	Fingerprint string        `json:"fingerprint"`
	Totals      dynamic.Stats `json:"totals"`
	// Replayed is the number of WAL records this session was rebuilt from at
	// creation; WALSeq/WALBytes describe its live log (durable sessions only).
	Replayed int64 `json:"replayed,omitempty"`
	WALSeq   int64 `json:"walSeq,omitempty"`
	WALBytes int64 `json:"walBytes,omitempty"`
}

// Mutate serves one dynamic session request. Mutations and pure coloring
// reads both execute against the live maintainer; neither touches the
// result cache, so the outcome is always Miss.
func (s *Service) Mutate(req MutateRequest) (*MutateResponse, Outcome, error) {
	return s.mutate(req, false)
}

// mutate is Mutate plus the ?detail=1 switch: with detail set, the response
// additionally carries the repair algorithm's identity, tier, palette bound,
// and measured color count.
func (s *Service) mutate(req MutateRequest, detail bool) (*MutateResponse, Outcome, error) {
	// Stripe the counters by session name: concurrent sessions update
	// disjoint cache lines, and all of one request's counts stay coherent
	// within its stripe.
	ctr := s.counters.stripe(cacheHashString(req.Session))
	ctr.requests.Add(1)
	if req.Session == "" {
		ctr.errors.Add(1)
		return nil, "", fmt.Errorf("service: mutate request needs a session name")
	}
	base := req.Base
	if base == nil && s.cfg.WALDir != "" {
		// No base spec, but the session may have a durable log from an
		// earlier incarnation (or a restart): its header carries the spec,
		// so the session is recoverable without the client resupplying it.
		if hdr, ok := s.walHeader(req.Session); ok {
			base = &hdr.Base
		}
	}
	sess, err := s.sessions.get(req.Session, base, func(spec exp.GraphSpec) (*dynamic.Maintainer, *wal.Log, exp.GraphSpec, int, error) {
		return s.buildMaintainer(req.Session, spec)
	})
	if err != nil {
		ctr.errors.Add(1)
		return nil, "", err
	}
	if len(req.Ops) == 0 && req.Colors {
		resp := sess.readColors()
		if detail {
			fillRepairDetail(resp, resp.NumColors)
		}
		return resp, Miss, nil
	}

	rep, applied, err := sess.mt.Apply(req.Ops)
	ctr.mutations.Add(int64(applied))
	if err != nil {
		ctr.errors.Add(1)
		if sess.mt.Poisoned() {
			// A failed repair disables the maintainer permanently; drop the
			// session so the name can be recreated instead of serving
			// "maintainer closed" until eviction.
			s.sessions.drop(req.Session, sess)
		}
		if applied > 0 {
			err = fmt.Errorf("%w (%d earlier op(s) of this request were applied)", err, applied)
		}
		return nil, "", err
	}
	// One atomic read of the post-apply state: a concurrent mutation of the
	// session must not land between the fingerprint, the shape and the
	// colors of one response.
	var (
		fp          graph.Fingerprint
		n, m, delta int
		colors      []int
	)
	if req.Colors || detail {
		fp, n, m, delta, colors = sess.mt.Snapshot()
	} else {
		fp, n, m, delta = sess.mt.Shape()
	}
	totals := sess.mt.Stats()
	resp := &MutateResponse{
		Session:     req.Session,
		Fingerprint: fp.String(),
		N:           n,
		M:           m,
		Delta:       delta,
		Applied:     applied,
		Repair:      &rep,
		Totals:      &totals,
	}
	if req.Colors {
		resp.Colors = colors
		resp.NumColors = graph.CountColors(colors)
	}
	if detail {
		fillRepairDetail(resp, graph.CountColors(colors))
	}
	return resp, Miss, nil
}

// fillRepairDetail stamps the ?detail=1 fields onto a mutate response. The
// maintainer's repair is first-fit over incident colors, so its guaranteed
// bound on the current graph is 2Δ-1 (pinned by the dynamic package's
// canonical tests); it serves the "fast" tier.
func fillRepairDetail(resp *MutateResponse, colorsUsed int) {
	resp.Alg, resp.Quality = "repair", algreg.QualityFast
	if resp.Delta > 0 {
		resp.PaletteBound = 2*resp.Delta - 1
	}
	resp.ColorsUsed = colorsUsed
}

// walPath maps a session name to its log file: a hash, not the name itself,
// so arbitrary session names cannot traverse or collide in the directory.
func (s *Service) walPath(name string) string {
	sum := sha256.Sum256([]byte("colord-wal-name\x00" + name))
	return filepath.Join(s.cfg.WALDir, hex.EncodeToString(sum[:16])+".wal")
}

// walHeader peeks at the named session's log header, if a log exists.
func (s *Service) walHeader(name string) (wal.Header, bool) {
	data, err := os.ReadFile(s.walPath(name))
	if err != nil {
		return wal.Header{}, false
	}
	hdr, _, _, err := wal.Scan(data)
	if err != nil {
		return wal.Header{}, false
	}
	return hdr, true
}

// buildMaintainer creates a session's maintainer from its base spec. The
// repair algorithm has a compiled form, and repairs are byte-identical across
// engines, so sessions always run on the compiled engine regardless of the
// service default — the choice is wall-clock only, and /statz records it per
// session. The commit hook feeds the subscriber hub: it fires under the
// maintainer's lock (so feed order is commit order), and the render closure
// only runs when the session has (ever had) subscribers — unobserved
// sessions never encode a frame.
//
// With Config.WALDir set, the session is durable: an existing log is
// replayed (the log header's spec wins over the request's — the log is the
// truth about what the session is), a missing one is created, and every
// commit appends its record — durability first, then the subscriber
// publish, both under the commit lock. A WAL append failure latches the log
// broken and counts in walErrors; serving continues on the in-memory state
// (an explicitly monitored degradation, not a silent one).
func (s *Service) buildMaintainer(name string, spec exp.GraphSpec) (*dynamic.Maintainer, *wal.Log, exp.GraphSpec, int, error) {
	if s.cfg.WALDir == "" {
		g, err := spec.Build()
		if err != nil {
			return nil, nil, spec, 0, err
		}
		m, err := dynamic.New(g, dynamic.Config{
			Engine: dist.Compiled,
			OnCommit: func(ev dynamic.CommitEvent) {
				s.hub.publish(name, ev.Seq, func() []byte { return deltaFrameBytes(name, ev) })
			},
		})
		return m, nil, spec, 0, err
	}

	path := s.walPath(name)
	opts := wal.Options{Sync: s.cfg.WALSync}
	var (
		l    *wal.Log
		hdr  wal.Header
		recs []wal.Record
	)
	if _, err := os.Stat(path); err == nil {
		l, hdr, recs, err = wal.Open(path, opts)
		if err != nil {
			return nil, nil, spec, 0, fmt.Errorf("service: session %q wal: %w", name, err)
		}
		if hdr.Session != name {
			l.Close()
			return nil, nil, spec, 0, fmt.Errorf("service: wal %s belongs to session %q, not %q", filepath.Base(path), hdr.Session, name)
		}
	} else if errors.Is(err, fs.ErrNotExist) {
		hdr = wal.Header{Session: name, Base: spec}
		l, err = wal.Create(path, hdr, opts)
		if err != nil {
			return nil, nil, spec, 0, fmt.Errorf("service: session %q wal: %w", name, err)
		}
	} else {
		return nil, nil, spec, 0, fmt.Errorf("service: session %q wal: %w", name, err)
	}

	ctr := s.counters.stripe(cacheHashString(name))
	m, err := dynamic.Replay(hdr, recs, dynamic.Config{
		Engine: dist.Compiled,
		OnCommit: func(ev dynamic.CommitEvent) {
			if err := l.Append(wal.Record{Seq: ev.Seq, Op: ev.Op, Fingerprint: ev.Fingerprint}); err != nil {
				ctr.walErrors.Add(1)
			} else {
				ctr.walAppends.Add(1)
			}
			s.hub.publish(name, ev.Seq, func() []byte { return deltaFrameBytes(name, ev) })
		},
	})
	if err != nil {
		l.Close()
		return nil, nil, spec, 0, err
	}
	ctr.replayed.Add(int64(len(recs)))
	return m, l, hdr.Base, len(recs), nil
}

// readColors serves a pure coloring read from one atomic maintainer
// snapshot, so the (fingerprint, colors) pair cannot be torn by a concurrent
// mutation. Neither cache serves these reads: the body is rendered from the
// snapshot the read must take anyway, and raw request bytes are not a stable
// key while the fingerprint moves under mutation.
func (s *session) readColors() *MutateResponse {
	fp, n, m, delta, colors := s.mt.Snapshot()
	return &MutateResponse{
		Session:     s.name,
		Fingerprint: fp.String(),
		N:           n,
		M:           m,
		Delta:       delta,
		Colors:      colors,
		NumColors:   graph.CountColors(colors),
	}
}
