//go:build !race

// The race runtime keeps released vertex coroutines parked for reuse (see
// dist's coro_race.go), so goroutine counts only settle without -race.

package dynamic

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/exp"
)

// TestMaintainerPinsNoCoroutines: every repair run is a one-shot dist run,
// so a live maintainer holds no vertex coroutines between mutations — after
// a churn stream on a scheduled engine, the goroutine count returns to its
// baseline before Close.
func TestMaintainerPinsNoCoroutines(t *testing.T) {
	stream := exp.MutationStream{Kind: "window", Base: exp.GraphSpec{Family: "gnm", N: 128, M: 384, Seed: 1}, Ops: 64, Window: 16, Seed: 3}
	base, muts, err := stream.Generate()
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	m, err := New(base, Config{Engine: dist.Sharded})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close() // keeps m live through the check below
	if _, _, err := m.Apply(muts); err != nil {
		t.Fatal(err)
	}
	// Shard workers finish just after their run returns; give them a moment.
	extra := 0
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if extra = runtime.NumGoroutine() - baseline; extra <= 0 || time.Now().After(deadline) {
			break
		}
	}
	if extra > 0 {
		t.Fatalf("live maintainer holds %d goroutines over the baseline of %d", extra, baseline)
	}
}
