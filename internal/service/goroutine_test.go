//go:build !race

// The race runtime keeps released vertex coroutines parked for reuse (see
// dist's coro_race.go), so goroutine counts only settle without -race.

package service

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/exp"
)

// TestServicePinsNoCoroutines: every miss is a one-shot dist run, so a live
// service holds no vertex coroutines between requests — after misses on a
// scheduled engine across several cached graphs, the goroutine count
// returns to its baseline before Close.
func TestServicePinsNoCoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := testConfig()
	cfg.Engine = dist.Sharded
	s := New(cfg)
	defer s.Close() // keeps s live through the check below
	for n := 20; n < 28; n++ {
		for _, kind := range []string{"edge", "vertex"} {
			req := Request{Kind: kind, Alg: "greedy", Graph: exp.GraphSpec{Family: "cycle", N: n}}
			if _, outcome, err := s.Handle(req); err != nil || outcome != Miss {
				t.Fatalf("%s/greedy cycle(n=%d): outcome %q err %v, want miss", kind, n, outcome, err)
			}
		}
	}
	// Shard workers finish just after their run returns; give them a moment.
	extra := 0
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if extra = runtime.NumGoroutine() - baseline; extra <= 0 || time.Now().After(deadline) {
			break
		}
	}
	if extra > 0 {
		t.Fatalf("live service holds %d goroutines over the baseline of %d", extra, baseline)
	}
}
