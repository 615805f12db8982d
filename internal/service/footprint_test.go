package service

import (
	"fmt"
	"runtime"
	"testing"
)

// fullCache returns a 4096-entry result cache filled until every shard is
// at capacity, plus keys it has never seen: each put of one of them evicts
// exactly one entry. The keys are built here so a put allocates none.
func fullCache(tb testing.TB, fresh int) (*shardedLRU[[]byte], []string) {
	tb.Helper()
	const capacity = 4096
	c := newShardedLRU[[]byte](capacity, 0)
	body := []byte("cached body")
	i := 0
	for ; c.snapshot().Entries < capacity; i++ {
		k := fmt.Sprintf("fill-%d", i)
		c.putHash(k, cacheHashString(k), body, len(body))
	}
	keys := make([]string, fresh)
	for j := range keys {
		keys[j] = fmt.Sprintf("fill-%d", i+j)
	}
	return c, keys
}

// TestCacheFillAllocs is the allocation budget of a miss fill: on a full
// cache, a put evicts the shard's least recently used entry and reuses its
// slot, so it allocates nothing.
func TestCacheFillAllocs(t *testing.T) {
	const runs = 1000
	c, keys := fullCache(t, runs+1) // AllocsPerRun calls f once more to warm up
	body := []byte("new body")
	before := c.snapshot()
	n := 0
	allocs := testing.AllocsPerRun(runs, func() {
		k := keys[n]
		n++
		c.putHash(k, cacheHashString(k), body, len(body))
	})
	after := c.snapshot()
	if got := after.Evictions - before.Evictions; got != int64(n) {
		t.Fatalf("%d puts evicted %d entries, want one each", n, got)
	}
	if after.Entries != before.Entries {
		t.Fatalf("entries %d → %d on a full cache", before.Entries, after.Entries)
	}
	if allocs != 0 {
		t.Fatalf("an evicting put allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestServiceFootprint bounds what an idle service costs: cache capacity is
// a bound, not a reservation, so New plus Close allocates O(shards), not
// O(CacheEntries). The best of a few rounds is taken so that another
// goroutine's allocations cannot fail the test.
func TestServiceFootprint(t *testing.T) {
	const budget = 64 << 10
	const perRound = 10
	best := uint64(1<<63 - 1)
	var ms runtime.MemStats
	for round := 0; round < 3; round++ {
		runtime.ReadMemStats(&ms)
		start := ms.TotalAlloc
		for i := 0; i < perRound; i++ {
			New(Config{}).Close()
		}
		runtime.ReadMemStats(&ms)
		best = min(best, (ms.TotalAlloc-start)/perRound)
	}
	if best > budget {
		t.Fatalf("New(Config{}) + Close allocates %d B, budget %d B", best, budget)
	}
	t.Logf("New(Config{}) + Close: %d B (budget %d B)", best, budget)
}

// BenchmarkCacheFill prices a miss fill on a full cache: one put that
// evicts the least recently used entry of its shard. The key pool is four
// times the capacity, so a key's 64-entry shard takes about 256 other puts
// before the key comes round again, and every put misses and evicts. The
// put path is warmed on the pool's last keys first, so that a
// one-iteration run does not time cold caches alone.
func BenchmarkCacheFill(b *testing.B) {
	c, keys := fullCache(b, 4*4096)
	body := []byte("new body")
	for _, k := range keys[len(keys)-64:] {
		c.putHash(k, cacheHashString(k), body, len(body))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		c.putHash(k, cacheHashString(k), body, len(body))
	}
}

// BenchmarkServiceNew prices an idle service: New with the default Config,
// then Close. One untimed call first warms the allocator.
func BenchmarkServiceNew(b *testing.B) {
	New(Config{}).Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(Config{}).Close()
	}
}
