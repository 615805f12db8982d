package service

import (
	"sync/atomic"

	"repro/internal/algreg"
)

// The wire fast path.
//
// At a 99.9% hit rate, the serving cost of a request is not the coloring —
// it is the JSON decode, the canonicalization, the sha256 key, and the JSON
// encode wrapped around a map lookup. Determinism collapses all of it: the
// response body is a pure function of the request's JSON bytes, so the bytes
// themselves are a valid cache key. Service.fast maps exact raw request
// bodies to prerendered response bodies; a fast-lane hit is one hash, one
// striped map lookup, and a Write — zero allocations, no JSON in either
// direction, no global lock.
//
// The fast cache sits strictly in front of the canonical result cache and
// is filled only from it (after a full decode/validate/render on the slow
// lane), so every spelling of a request — field order, whitespace, engine
// hints — serves the same canonical bytes it would get from the slow lane.
// Entries never go stale: /v1/color results are immutable (mutable-session
// reads do not use the fast lane), so eviction is purely a memory bound.

// fastEntry is one prerendered response: body is the slow lane's render of
// the result-cache record, the only rendered copy the service keeps, and
// key feeds the X-Colord-Key header without re-deriving it.
type fastEntry struct {
	body []byte
	key  string
}

// counterStripes must be a power of two; 8 stripes is plenty to keep
// request-plane counter updates from serializing on one cache line at any
// core count this service meets.
const counterStripes = 8

// counterStripe is one cache-line-padded slice of the request-plane
// counters. Within a request, requests is always incremented before the
// outcome counter, so per-stripe sums never show outcomes without their
// requests. badRequests counts bodies that never parsed — deliberately
// outside the requests/outcome arithmetic (a body that never parsed never
// became a request), which keeps /statz able to see a garbage-spraying
// client without perturbing the requests ≥ outcomes invariant. The
// subscribes/delivered/dropped trio is the streaming-feed plane, striped by
// session name; replayed/walAppends/walErrors/filled are the
// durability-and-cluster plane (WAL records replayed into recovered
// sessions, per-commit log appends and failures, cache misses satisfied by
// a peer).
type counterStripe struct {
	requests    atomic.Int64
	hits        atomic.Int64
	coalesced   atomic.Int64
	runs        atomic.Int64
	errors      atomic.Int64
	mutations   atomic.Int64
	badRequests atomic.Int64
	subscribes  atomic.Int64
	delivered   atomic.Int64
	dropped     atomic.Int64
	replayed    atomic.Int64
	walAppends  atomic.Int64
	walErrors   atomic.Int64
	filled      atomic.Int64
	// algRequests counts requests per servable algorithm, indexed by the
	// registry's ServeIndex — the per-alg half of /statz, on the same
	// striped plane as the outcome counters.
	algRequests [algreg.MaxServable]atomic.Int64
	_           [192 - 14*8 - algreg.MaxServable*8]byte
}

// serviceCounters stripes the per-request counters across padded cache
// lines, picked by the request's key hash. Snapshots sum the stripes, each
// counter read once — a coherent local snapshot, monotone under load.
type serviceCounters struct {
	stripes [counterStripes]counterStripe
}

func (c *serviceCounters) stripe(h uint64) *counterStripe {
	return &c.stripes[h&(counterStripes-1)]
}

// counterTotals is the summed snapshot of the striped counters.
type counterTotals struct {
	requests, hits, coalesced, runs, errors, mutations int64
	badRequests, subscribes, delivered, dropped        int64
	replayed, walAppends, walErrors, filled            int64
	algRequests                                        [algreg.MaxServable]int64
}

func (c *serviceCounters) totals() counterTotals {
	var t counterTotals
	for i := range c.stripes {
		s := &c.stripes[i]
		// Outcomes first, requests last — the mirror image of the write
		// order (requests before outcome). Any outcome visible in the
		// snapshot then implies its request is too, so snapshots never show
		// hits+coalesced+runs exceeding requests. The per-alg counts are
		// outcomes in this sense too: written after requests, read before.
		for j := range s.algRequests {
			t.algRequests[j] += s.algRequests[j].Load()
		}
		t.hits += s.hits.Load()
		t.coalesced += s.coalesced.Load()
		t.runs += s.runs.Load()
		t.errors += s.errors.Load()
		t.mutations += s.mutations.Load()
		t.badRequests += s.badRequests.Load()
		t.subscribes += s.subscribes.Load()
		t.delivered += s.delivered.Load()
		t.dropped += s.dropped.Load()
		t.replayed += s.replayed.Load()
		t.walAppends += s.walAppends.Load()
		t.walErrors += s.walErrors.Load()
		t.filled += s.filled.Load()
		t.requests += s.requests.Load()
	}
	return t
}
