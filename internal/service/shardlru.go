package service

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// CacheStats is a point-in-time snapshot of a bounded cache (the result
// cache or the wire fast-path cache), aggregated across its shards.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Shards    int   `json:"shards"`
}

// lruSeed keys the shard/stripe hash for this process. It is deliberately
// per-process: shard placement is a private load-balancing concern, never
// part of any persisted or wire-visible state.
var lruSeed = maphash.MakeSeed()

// cacheHash is the one hash every cache (and the counter stripes) derives
// its placement from, so a request path computes it once and reuses it.
func cacheHash(key []byte) uint64 { return maphash.Bytes(lruSeed, key) }

// cacheHashString is cacheHash for keys already held as strings.
func cacheHashString(key string) uint64 { return maphash.String(lruSeed, key) }

// shardedLRU is a bounded LRU map striped across independently locked
// shards: a key's hash picks its shard, each shard runs a strict LRU over
// its slice of the capacity, and stats are per-shard atomics summed on
// snapshot — so a cache hit touches exactly one shard mutex and no global
// lock. Capacity is enforced per shard (capacity/shards each), which bounds
// the total at capacity while letting an adversarial key distribution evict
// slightly early in a hot shard; with hashed keys the shards stay balanced.
type shardedLRU[V any] struct {
	shards []lruShard[V]
	mask   uint64
}

type lruShard[V any] struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *lruEntry[V]
	entries map[string]*list.Element

	hits, misses, evictions, bytes atomic.Int64

	// Pad shards apart so neighboring shards' mutexes and stats don't share
	// a cache line and serialize unrelated requests.
	_ [24]byte
}

type lruEntry[V any] struct {
	key  string
	val  V
	size int
}

// shardsFor picks the shard count for a capacity: the largest power of two
// (≤ 64) that still leaves every shard at least 32 entries, so tiny caches
// degrade to a single strict LRU and big ones stripe wide.
func shardsFor(capacity int) int {
	n := 1
	for n < 64 && capacity/(2*n) >= 32 {
		n *= 2
	}
	return n
}

// newShardedLRU builds a striped LRU holding capacity entries total. shards
// must be a power of two (or <= 0 to size automatically from the capacity).
func newShardedLRU[V any](capacity, shards int) *shardedLRU[V] {
	if capacity <= 0 {
		capacity = 1
	}
	if shards <= 0 {
		shards = shardsFor(capacity)
	}
	for s := 1; ; s *= 2 {
		if s >= shards {
			shards = s
			break
		}
	}
	per := (capacity + shards - 1) / shards
	c := &shardedLRU[V]{shards: make([]lruShard[V], shards), mask: uint64(shards - 1)}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.cap = per
		sh.order = list.New()
		sh.entries = make(map[string]*list.Element, per)
	}
	return c
}

// getBytesHash looks key up with its precomputed cacheHash. The []byte key
// form keeps the hot path allocation-free: the map index expression
// entries[string(key)] does not materialize the string.
func (c *shardedLRU[V]) getBytesHash(key []byte, h uint64) (V, bool) {
	sh := &c.shards[h&c.mask]
	sh.mu.Lock()
	el, ok := sh.entries[string(key)]
	if !ok {
		sh.mu.Unlock()
		sh.misses.Add(1)
		var zero V
		return zero, false
	}
	sh.order.MoveToFront(el)
	v := el.Value.(*lruEntry[V]).val
	sh.mu.Unlock()
	sh.hits.Add(1)
	return v, true
}

// getHash is getBytesHash for string keys.
func (c *shardedLRU[V]) getHash(key string, h uint64) (V, bool) {
	sh := &c.shards[h&c.mask]
	sh.mu.Lock()
	el, ok := sh.entries[key]
	if !ok {
		sh.mu.Unlock()
		sh.misses.Add(1)
		var zero V
		return zero, false
	}
	sh.order.MoveToFront(el)
	v := el.Value.(*lruEntry[V]).val
	sh.mu.Unlock()
	sh.hits.Add(1)
	return v, true
}

// get looks key up, hashing it here.
func (c *shardedLRU[V]) get(key string) (V, bool) {
	return c.getHash(key, cacheHashString(key))
}

// putHash stores val under key (first-wins: if the key is already present
// the existing value is kept and returned — determinism guarantees equal
// values, and first-wins lets concurrent fillers converge on one shared
// allocation). size is the entry's accounted byte weight. Evicts the
// shard's least recently used entries over its capacity slice.
func (c *shardedLRU[V]) putHash(key string, h uint64, val V, size int) V {
	sh := &c.shards[h&c.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[key]; ok {
		sh.order.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val
	}
	sh.entries[key] = sh.order.PushFront(&lruEntry[V]{key: key, val: val, size: size})
	sh.bytes.Add(int64(size))
	for sh.order.Len() > sh.cap {
		last := sh.order.Back()
		ent := last.Value.(*lruEntry[V])
		sh.order.Remove(last)
		delete(sh.entries, ent.key)
		sh.bytes.Add(-int64(ent.size))
		sh.evictions.Add(1)
	}
	return val
}

// remove drops key's entry, if present. A removal is not an eviction: it
// frees the slot without counting against the cache.
func (c *shardedLRU[V]) remove(key string, h uint64) {
	sh := &c.shards[h&c.mask]
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		sh.order.Remove(el)
		delete(sh.entries, key)
		sh.bytes.Add(-int64(el.Value.(*lruEntry[V]).size))
	}
	sh.mu.Unlock()
}

// snapshot aggregates the per-shard stats. Each shard is read coherently
// (entry count under its lock, counters as single atomic loads), so totals
// are a sum of per-shard snapshots taken at slightly different instants —
// exact for a quiescent cache, monotone under load.
func (c *shardedLRU[V]) snapshot() CacheStats {
	s := CacheStats{Shards: len(c.shards)}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += sh.order.Len()
		sh.mu.Unlock()
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		s.Evictions += sh.evictions.Load()
		s.Bytes += sh.bytes.Load()
	}
	return s
}
