package service

import (
	"fmt"
	"sync"
	"testing"
)

// liveSlots walks sh's recency list from most to least recently used under
// the shard lock and returns its entries, failing t unless the slab is
// consistent: links agree both ways, every listed slot is the one its key
// maps to, the list holds exactly the map's keys, free and live slots
// together fill the slab, and the slab stays within the shard's capacity.
func liveSlots[V any](t *testing.T, sh *lruShard[V]) []lruSlot[V] {
	t.Helper()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var live []lruSlot[V]
	prev := int32(noSlot)
	for i := sh.head; i != noSlot; i = sh.slots[i].next {
		s := sh.slots[i]
		if s.prev != prev {
			t.Fatalf("slot %d: prev %d, want %d", i, s.prev, prev)
		}
		if j, ok := sh.entries[s.key]; !ok || j != i {
			t.Fatalf("slot %d holds %q, which maps to slot %d (present %v)", i, s.key, j, ok)
		}
		if live = append(live, s); len(live) > len(sh.slots) {
			t.Fatal("recency list has a cycle")
		}
		prev = i
	}
	if sh.tail != prev {
		t.Fatalf("tail %d, list ends at %d", sh.tail, prev)
	}
	if len(live) != len(sh.entries) {
		t.Fatalf("recency list holds %d slots, map %d keys", len(live), len(sh.entries))
	}
	free := 0
	for i := sh.free; i != noSlot; i = sh.slots[i].next {
		if sh.slots[i].key != "" || sh.slots[i].size != 0 {
			t.Fatalf("free slot %d not zeroed: key %q size %d", i, sh.slots[i].key, sh.slots[i].size)
		}
		if free++; free > len(sh.slots) {
			t.Fatal("free chain has a cycle")
		}
	}
	if len(live)+free != len(sh.slots) {
		t.Fatalf("%d live + %d free slots, slab holds %d", len(live), free, len(sh.slots))
	}
	if cap(sh.slots) > int(sh.cap) {
		t.Fatalf("slab capacity %d over the shard's cap %d", cap(sh.slots), sh.cap)
	}
	return live
}

// TestShardedCacheLayoutIndependence pins the determinism property of the
// striped LRU: hit/miss behavior for a working set within capacity is a
// function of the keys alone, not of the shard layout. The same key sequence
// against 1, 2, 8, and 64 shards must produce identical lookup results.
func TestShardedCacheLayoutIndependence(t *testing.T) {
	keys := make([]string, 48)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	for _, shards := range []int{1, 2, 8, 64} {
		// Capacity ≥ shards × len(keys) guarantees no shard can evict even
		// if every key landed in one shard: presence is then layout-free.
		c := newShardedLRU[[]byte](shards*len(keys), shards)
		for i, k := range keys {
			if _, ok := c.get(k); ok {
				t.Fatalf("shards=%d: %q present before put", shards, k)
			}
			c.putHash(k, cacheHashString(k), []byte(k), len(k))
			if i%2 == 0 { // interleave repeat lookups with fills
				for _, earlier := range keys[:i+1] {
					v, ok := c.get(earlier)
					if !ok {
						t.Fatalf("shards=%d: %q missing after put", shards, earlier)
					}
					if string(v) != earlier {
						t.Fatalf("shards=%d: %q returned wrong value %q", shards, earlier, v)
					}
				}
			}
		}
		st := c.snapshot()
		if st.Entries != len(keys) {
			t.Fatalf("shards=%d: %d entries, want %d", shards, st.Entries, len(keys))
		}
		if st.Shards != shards {
			t.Fatalf("shards=%d: snapshot reports %d shards", shards, st.Shards)
		}
		if st.Misses != int64(len(keys)) {
			t.Fatalf("shards=%d: %d misses, want %d (one per first lookup)", shards, st.Misses, len(keys))
		}
	}
}

// TestShardedCacheFirstWins pins the fill-race contract: a second put of an
// existing key keeps and returns the first value, so concurrent fillers of
// one key converge on a single shared entry.
func TestShardedCacheFirstWins(t *testing.T) {
	c := newShardedLRU[*string](8, 0)
	a, b := new(string), new(string)
	*a, *b = "first", "second"
	h := cacheHashString("k")
	if got := c.putHash("k", h, a, len(*a)); got != a {
		t.Fatal("first put must return its own value")
	}
	if got := c.putHash("k", h, b, len(*b)); got != a {
		t.Fatal("second put must return the first value (first-wins)")
	}
	if v, _ := c.get("k"); v != a {
		t.Fatal("lookup must return the first value")
	}
	if st := c.snapshot(); st.Bytes != int64(len("first")) {
		t.Fatalf("losing put must not be accounted: bytes %d", st.Bytes)
	}
}

// TestShardedCacheConcurrentEviction churns a small sharded cache from many
// goroutines (distinct key streams, shared hot keys, snapshots in flight)
// and then checks the accounting invariants: entries within capacity, bytes
// matching the surviving entries exactly, evictions consistent with the
// number of puts. Run under -race this is also the striping race test.
func TestShardedCacheConcurrentEviction(t *testing.T) {
	const capacity, shards = 64, 4
	lru := newShardedLRU[int](capacity, shards)
	var wg sync.WaitGroup
	const writers, perWriter = 8, 400
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				if i%5 == 0 {
					key = fmt.Sprintf("hot-%d", i%7) // contended cross-writer keys
				}
				lru.putHash(key, cacheHashString(key), i, len(key))
				lru.get(key)
				if i%97 == 0 {
					lru.snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	st := lru.snapshot()
	if st.Entries == 0 || st.Entries > capacity {
		t.Fatalf("entries %d out of bounds (cap %d)", st.Entries, capacity)
	}
	// The per-shard LRU bound: no shard may exceed its capacity slice.
	per := (capacity + shards - 1) / shards
	for i := range lru.shards {
		if n := len(liveSlots(t, &lru.shards[i])); n > per {
			t.Fatalf("shard %d holds %d entries, per-shard cap %d", i, n, per)
		}
	}
	// Quiescent bytes must equal the sum over surviving entries.
	var want int64
	for i := range lru.shards {
		for _, s := range liveSlots(t, &lru.shards[i]) {
			want += int64(s.size)
		}
	}
	if st.Bytes != want {
		t.Fatalf("accounted bytes %d, surviving entries sum to %d", st.Bytes, want)
	}
}

// TestShardedCacheSnapshotMatchesShards pins the aggregation contract:
// snapshot() totals equal the sum of the per-shard counters and sizes.
func TestShardedCacheSnapshotMatchesShards(t *testing.T) {
	lru := newShardedLRU[string](32, 8)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%02d", i%40)
		lru.get(k)
		lru.putHash(k, cacheHashString(k), k, len(k))
	}
	got := lru.snapshot()
	var want CacheStats
	want.Shards = len(lru.shards)
	for i := range lru.shards {
		sh := &lru.shards[i]
		want.Entries += len(liveSlots(t, sh))
		want.Hits += sh.hits.Load()
		want.Misses += sh.misses.Load()
		want.Evictions += sh.evictions.Load()
		want.Bytes += sh.bytes.Load()
	}
	if got != want {
		t.Fatalf("snapshot %+v, sum of shards %+v", got, want)
	}
	if got.Hits == 0 || got.Misses == 0 {
		t.Fatalf("test exercised no hits or no misses: %+v", got)
	}
}

// TestShardedCacheRemove pins remove: it frees the key's slot and bytes
// without counting an eviction, and is a no-op for an absent key.
func TestShardedCacheRemove(t *testing.T) {
	lru := newShardedLRU[int](4, 1)
	for i, k := range []string{"a", "bb", "ccc"} {
		lru.putHash(k, cacheHashString(k), i, len(k))
	}
	lru.remove("bb", cacheHashString("bb"))
	lru.remove("nope", cacheHashString("nope"))
	if _, ok := lru.get("bb"); ok {
		t.Fatal("removed key still present")
	}
	st := lru.snapshot()
	if st.Entries != 2 || st.Bytes != int64(len("a")+len("ccc")) || st.Evictions != 0 {
		t.Fatalf("after remove: %+v", st)
	}
	// The next put takes the vacated slot instead of growing the slab.
	lru.putHash("dddd", cacheHashString("dddd"), 3, len("dddd"))
	if live, slab := len(liveSlots(t, &lru.shards[0])), len(lru.shards[0].slots); live != 3 || slab != 3 {
		t.Fatalf("after put into the vacated slot: %d live entries in a slab of %d, want 3 in 3", live, slab)
	}
}

// TestShardsFor pins the adaptive shard sizing: power-of-two counts, single
// shard (strict global LRU) for small caches, capped striping for large.
func TestShardsFor(t *testing.T) {
	cases := []struct{ capacity, want int }{
		{1, 1}, {2, 1}, {63, 1}, {64, 2}, {128, 4}, {4096, 64}, {1 << 20, 64},
	}
	for _, c := range cases {
		if got := shardsFor(c.capacity); got != c.want {
			t.Errorf("shardsFor(%d) = %d, want %d", c.capacity, got, c.want)
		}
	}
}
