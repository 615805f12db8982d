package dist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// liveGoroutines is the goroutine count minus the released coroutines parked
// in the idle set (only the race build keeps any; see keepIdleCoros).
func liveGoroutines() int {
	idleCoros.Lock()
	defer idleCoros.Unlock()
	return runtime.NumGoroutine() - len(idleCoros.list)
}

// settleGoroutines polls until the live goroutine count is back to base and
// fails after a deadline.
func settleGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := liveGoroutines()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines left behind (baseline %d)", what, n-base, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunnerLeavesNoGoroutines pins the runtime's lifecycle: on every
// engine, a run ends every vertex coroutine and shard worker it started —
// whether it succeeds, a vertex panics, the round cap trips, or a vertex
// panics while the others sit inside Idle (whose user defers must all run) —
// and so do concurrent Pool.RunAlgo runs.
func TestRunnerLeavesNoGoroutines(t *testing.T) {
	g := graph.GNM(60, 200, 4)
	engines := []Engine{Goroutines, Lockstep, Sharded, Compiled}
	forever := func(v Process) int {
		for {
			v.Round(nil)
		}
	}
	bomb := func(v Process) int {
		if v.ID() == 9 {
			panic("bomb")
		}
		return forever(v)
	}

	base := liveGoroutines()
	for _, e := range engines {
		if _, err := RunAlgo(g, chattyAlgo(), WithEngine(e), WithShards(3)); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(g, poolAlgo, WithEngine(e), WithShards(3)); err != nil {
			t.Fatal(err)
		}
	}
	settleGoroutines(t, "successful runs", base)

	for _, e := range engines {
		if _, err := Run(g, bomb, WithEngine(e), WithShards(3)); err == nil {
			t.Fatalf("engine %v: want panic error", e)
		}
		if _, err := RunAlgo(g, Algo[int]{Vertex: bomb}, WithEngine(e), WithShards(3)); err == nil {
			t.Fatalf("engine %v: want panic error", e)
		}
		if _, err := Run(g, forever, WithEngine(e), WithShards(3), WithMaxRounds(5)); err == nil {
			t.Fatalf("engine %v: want round-cap error", e)
		}
	}
	// A panic while every other vertex sits inside Idle: the idlers are
	// unwound too, running their user defers.
	var deferred atomic.Int64
	bombIdle := func(v Process) int {
		defer deferred.Add(1)
		if v.ID() == 9 {
			v.Round(nil)
			panic("bomb")
		}
		v.Idle(1000)
		return 0
	}
	for _, e := range engines {
		deferred.Store(0)
		if _, err := RunAlgo(g, Algo[int]{Vertex: bombIdle}, WithEngine(e), WithShards(3)); err == nil {
			t.Fatalf("engine %v: want panic error", e)
		}
		if n := deferred.Load(); n != int64(g.N()) {
			t.Fatalf("engine %v: %d of %d user defers ran", e, n, g.N())
		}
	}
	settleGoroutines(t, "failed runs", base)

	p := NewPool[int](g, 2)
	var wg sync.WaitGroup
	for _, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.RunAlgo(Algo[int]{Vertex: poolAlgo}, WithEngine(e), WithShards(3)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	p.Close()
	settleGoroutines(t, "Pool.RunAlgo", base)
}
