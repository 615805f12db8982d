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
// seeds and engines and checks every result against a fresh dist.Run: the
// Pool is a delegate to RunAlgo on every engine.
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
}
