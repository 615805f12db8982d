package service

import (
	"hash/maphash"
	"math"
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
//
// Capacity is a bound, not a reservation: a shard starts with an empty map
// and no slots, so an empty cache costs O(shards) memory and a full one
// O(capacity).
type shardedLRU[V any] struct {
	shards []lruShard[V]
	mask   uint64
}

// lruShard is one strict LRU. Its entries live in a slot slab linked by
// index: head is the most recently used slot, tail the least, and free
// chains the vacated slots through next. The slab grows by one slot per new
// entry until it reaches cap; from then on a put reuses the slot its
// eviction vacated, so a fill on a full shard allocates nothing.
type lruShard[V any] struct {
	mu      sync.Mutex
	entries map[string]int32 // key → slot index
	slots   []lruSlot[V]

	cap, head, tail, free int32 // head, tail and free are noSlot when empty

	hits, misses, evictions, bytes atomic.Int64

	// Pad shards apart (a 128-byte stride on 64-bit platforms) so
	// neighboring shards' mutexes and stats don't share a cache line and
	// serialize unrelated requests.
	_ [40]byte
}

// lruSlot is one slab slot: a live entry, linked into the recency list by
// prev and next, or a zeroed vacancy on the free chain.
type lruSlot[V any] struct {
	key        string
	val        V
	size       int
	prev, next int32
}

const noSlot = -1

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

// newShardedLRU builds a striped LRU holding at most capacity entries
// total. shards must be a power of two (or <= 0 to size automatically from
// the capacity).
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
	per := min((capacity+shards-1)/shards, math.MaxInt32)
	c := &shardedLRU[V]{shards: make([]lruShard[V], shards), mask: uint64(shards - 1)}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.cap = int32(per)
		sh.head, sh.tail, sh.free = noSlot, noSlot, noSlot
		sh.entries = make(map[string]int32)
	}
	return c
}

// unlink takes slot i out of the recency list.
func (sh *lruShard[V]) unlink(i int32) {
	s := &sh.slots[i]
	if s.prev == noSlot {
		sh.head = s.next
	} else {
		sh.slots[s.prev].next = s.next
	}
	if s.next == noSlot {
		sh.tail = s.prev
	} else {
		sh.slots[s.next].prev = s.prev
	}
}

// pushFront links slot i in as the most recently used.
func (sh *lruShard[V]) pushFront(i int32) {
	s := &sh.slots[i]
	s.prev, s.next = noSlot, sh.head
	if sh.head == noSlot {
		sh.tail = i
	} else {
		sh.slots[sh.head].prev = i
	}
	sh.head = i
}

// touch marks slot i as the most recently used.
func (sh *lruShard[V]) touch(i int32) {
	if sh.head != i {
		sh.unlink(i)
		sh.pushFront(i)
	}
}

// vacate drops slot i's entry and puts the zeroed slot on the free chain,
// so the slab no longer references the entry's key or value.
func (sh *lruShard[V]) vacate(i int32) {
	sh.unlink(i)
	delete(sh.entries, sh.slots[i].key)
	sh.bytes.Add(-int64(sh.slots[i].size))
	sh.slots[i] = lruSlot[V]{next: sh.free}
	sh.free = i
}

// alloc returns a free slot: the head of the free chain, else a new slot
// appended to the slab. The slab's capacity never exceeds cap.
func (sh *lruShard[V]) alloc() int32 {
	if i := sh.free; i != noSlot {
		sh.free = sh.slots[i].next
		return i
	}
	if len(sh.slots) == cap(sh.slots) {
		grown := make([]lruSlot[V], len(sh.slots), min(max(2*len(sh.slots), 4), int(sh.cap)))
		copy(grown, sh.slots)
		sh.slots = grown
	}
	sh.slots = append(sh.slots, lruSlot[V]{})
	return int32(len(sh.slots) - 1)
}

// getBytesHash looks key up with its precomputed cacheHash. The []byte key
// form keeps the hot path allocation-free: the map index expression
// entries[string(key)] does not materialize the string.
func (c *shardedLRU[V]) getBytesHash(key []byte, h uint64) (V, bool) {
	sh := &c.shards[h&c.mask]
	sh.mu.Lock()
	i, ok := sh.entries[string(key)]
	if !ok {
		sh.mu.Unlock()
		sh.misses.Add(1)
		var zero V
		return zero, false
	}
	sh.touch(i)
	v := sh.slots[i].val
	sh.mu.Unlock()
	sh.hits.Add(1)
	return v, true
}

// getHash is getBytesHash for string keys.
func (c *shardedLRU[V]) getHash(key string, h uint64) (V, bool) {
	sh := &c.shards[h&c.mask]
	sh.mu.Lock()
	i, ok := sh.entries[key]
	if !ok {
		sh.mu.Unlock()
		sh.misses.Add(1)
		var zero V
		return zero, false
	}
	sh.touch(i)
	v := sh.slots[i].val
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
// allocation). size is the entry's accounted byte weight. A full shard
// evicts its least recently used entry and reuses that slot.
func (c *shardedLRU[V]) putHash(key string, h uint64, val V, size int) V {
	sh := &c.shards[h&c.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i, ok := sh.entries[key]; ok {
		sh.touch(i)
		return sh.slots[i].val
	}
	if len(sh.entries) >= int(sh.cap) {
		sh.vacate(sh.tail)
		sh.evictions.Add(1)
	}
	i := sh.alloc()
	sh.slots[i] = lruSlot[V]{key: key, val: val, size: size}
	sh.pushFront(i)
	sh.entries[key] = i
	sh.bytes.Add(int64(size))
	return val
}

// remove drops key's entry, if present. A removal is not an eviction: it
// frees the slot without counting against the cache.
func (c *shardedLRU[V]) remove(key string, h uint64) {
	sh := &c.shards[h&c.mask]
	sh.mu.Lock()
	if i, ok := sh.entries[key]; ok {
		sh.vacate(i)
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
		s.Entries += len(sh.entries)
		sh.mu.Unlock()
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		s.Evictions += sh.evictions.Load()
		s.Bytes += sh.bytes.Load()
	}
	return s
}
