package dist

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// poolAlgo is a small chatty algorithm whose output depends on the seed, so
// pooled runs with different options are distinguishable.
func poolAlgo(v Process) int {
	x := v.ID() + v.Rand().Intn(1000)
	for i := 0; i < 3; i++ {
		in := v.Broadcast(wire.EncodeInts(x))
		for p := 0; p < v.Deg(); p++ {
			if in[p] != nil {
				vals, err := wire.DecodeInts(in[p], 1)
				if err != nil {
					panic(err)
				}
				x += vals[0] % 7
			}
		}
	}
	return x
}

// TestPoolMatchesRun hammers one Pool from many goroutines with a mix of
// seeds and engines and checks every result against a fresh dist.Run — the
// byte-identity the coloring service's cache correctness rests on.
func TestPoolMatchesRun(t *testing.T) {
	g := graph.GNM(60, 200, 4)
	p := NewPool[int](g, 3)
	defer p.Close()

	type job struct {
		seed   int64
		engine Engine
	}
	jobs := make([]job, 0, 32)
	for seed := int64(0); seed < 4; seed++ {
		for _, e := range []Engine{Goroutines, Lockstep, Sharded, Compiled} {
			jobs = append(jobs, job{seed, e}, job{seed + 100, e})
		}
	}
	want := make([]*Result[int], len(jobs))
	for i, j := range jobs {
		res, err := Run(g, poolAlgo, WithSeed(j.seed), WithEngine(j.engine))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			res, err := p.RunAlgo(Algo[int]{Vertex: poolAlgo}, WithSeed(j.seed), WithEngine(j.engine))
			if err != nil {
				errs[i] = err
				return
			}
			if !reflect.DeepEqual(res.Outputs, want[i].Outputs) || res.Stats != want[i].Stats {
				errs[i] = fmt.Errorf("job %d: pooled result differs from dist.Run", i)
			}
		}(i, j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := p.Stats()
	if st.Acquires != int64(len(jobs)) {
		t.Fatalf("acquires = %d, want %d", st.Acquires, len(jobs))
	}
	if st.Builds > 3 {
		t.Fatalf("builds = %d exceeds cap 3", st.Builds)
	}
	if st.Reuses != st.Acquires-st.Builds {
		t.Fatalf("stats inconsistent: %+v", st)
	}
	if st.Idle != int(st.Builds) {
		t.Fatalf("idle = %d, want all %d built runners parked", st.Idle, st.Builds)
	}
}

// TestPoolFailedRunRecovers checks that a panicking algorithm poisons neither
// the pool nor the runner slot it used.
func TestPoolFailedRunRecovers(t *testing.T) {
	g := graph.Cycle(8)
	p := NewPool[int](g, 1)
	defer p.Close()
	if _, err := p.RunAlgo(Algo[int]{Vertex: func(v Process) int { panic("boom") }}); err == nil {
		t.Fatal("want error from panicking run")
	}
	res, err := p.RunAlgo(Algo[int]{Vertex: poolAlgo}, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(g, poolAlgo, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Outputs, want.Outputs) {
		t.Fatal("post-failure pooled run differs from dist.Run")
	}
}

// TestPoolCloseReleasesBlockedAcquirers pins the Close contract: callers
// blocked on a saturated pool complete (on fresh runners) instead of hanging.
func TestPoolCloseReleasesBlockedAcquirers(t *testing.T) {
	g := graph.Cycle(6)
	p := NewPool[int](g, 1)
	hold := p.acquire() // saturate the cap so the next acquire blocks
	done := make(chan error, 1)
	go func() {
		_, err := p.RunAlgo(Algo[int]{Vertex: poolAlgo})
		done <- err
	}()
	for p.Stats().Waits == 0 { // wait until the goroutine is parked
	}
	p.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	p.release(hold) // returned after Close: must be closed, not pooled
	if st := p.Stats(); st.Idle != 0 {
		t.Fatalf("idle = %d after Close, want 0", st.Idle)
	}
}
