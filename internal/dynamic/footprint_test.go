package dynamic

import (
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/exp"
)

// liveHeap returns the live heap after two full collections: the second
// frees what sync.Pool victim caches kept through the first.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestMaintainerFootprint bounds what a churned session keeps: a maintainer
// over the churn base, after a 4,256-op window stream applied in 16-op
// batches and a final Snapshot, retains at most budget bytes of heap beyond
// the CSR graph its overlay layers over. Per-edge state is slot-indexed
// slices and reads build no graph, so the retention is O(n + m) words with
// no map overhead or memoized materialization. The best of a few rounds is
// taken so that another goroutine's allocations cannot fail the test.
func TestMaintainerFootprint(t *testing.T) {
	const budget = 16 << 10
	const batch = 16
	base, muts, err := exp.MutationStream{Kind: "window", Base: churnBase, Ops: 4256, Window: 32, Seed: 5}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	best := int64(1<<63 - 1)
	for round := 0; round < 3; round++ {
		start := liveHeap()
		m, err := New(base, Config{Engine: dist.Compiled})
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(muts); off += batch {
			if _, _, err := m.Apply(muts[off:min(off+batch, len(muts))]); err != nil {
				t.Fatal(err)
			}
		}
		m.Snapshot()
		retained := liveHeap() - start
		// The window keeps the churn layer below the compaction threshold,
		// so the base is normally still the test's own; a compacted base
		// belongs to the maintainer and is not counted either.
		if cur := m.ov.Base(); cur != base {
			before := liveHeap()
			clone := cur.Clone()
			retained -= liveHeap() - before
			runtime.KeepAlive(clone)
		}
		runtime.KeepAlive(m)
		best = min(best, retained)
	}
	if best > budget {
		t.Fatalf("a churned maintainer retains %d B beyond its base graph, budget %d B", best, budget)
	}
	t.Logf("a churned maintainer retains %d B beyond its base graph (budget %d B)", best, budget)
}
