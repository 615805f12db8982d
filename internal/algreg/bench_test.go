package algreg_test

import (
	"testing"

	"repro/internal/algreg"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/graph"
)

// smallMixGraphs names each servable algorithm's graph in loadgen's small
// mix (fewcolors takes the fewcolors mix's gnm(64,192)).
var smallMixGraphs = map[string]exp.GraphSpec{
	"edge/be":        {Family: "gnm", N: 64, M: 192, Seed: 1},
	"edge/pr":        {Family: "regular", N: 48, Deg: 4, Seed: 2},
	"edge/greedy":    {Family: "tree", N: 64, Seed: 3},
	"edge/fewcolors": {Family: "gnm", N: 64, M: 192, Seed: 1},
	"vertex/be":      {Family: "powercycle", N: 40, Deg: 3},
	"vertex/greedy":  {Family: "cycle", N: 64},
}

// deepGraphs names, per algorithm, a graph on which its default plan has
// depth 1, benchmarked as the row "{alg}-depth1" next to the small-mix row:
// vertex/be's plan recurses once on powercycle(200,10), Δ=20.
var deepGraphs = map[string]exp.GraphSpec{
	"vertex/be": {Family: "powercycle", N: 200, Deg: 10},
}

// BenchmarkServedAlgos runs every servable algorithm on its small-mix graph
// (and on its deepGraphs entry, if any) with the service's default
// parameters, one dist.RunAlgo per iteration the way the service runs a
// miss, under the Compiled engine the service uses and under Lockstep (the
// scheduler on one shard). Under Compiled every algorithm but edge/fewcolors
// runs its flat pass; edge/fewcolors has none, so Compiled runs it on the
// scheduler exactly as Lockstep does, and its compiled/lockstep pair is the
// same run twice. scripts/bench.sh records these rows in BENCH_runtime.json.
func BenchmarkServedAlgos(b *testing.B) {
	for _, a := range algreg.Servable() {
		name := a.Kind + "/" + a.Name
		if _, ok := smallMixGraphs[name]; !ok {
			b.Fatalf("%s: no small-mix graph", name)
		}
		benchServed(b, a, name, smallMixGraphs[name])
		if spec, ok := deepGraphs[name]; ok {
			benchServed(b, a, name+"-depth1", spec)
		}
	}
}

// benchServed emits the compiled and lockstep rows of one servable
// algorithm on one graph.
func benchServed(b *testing.B, a *algreg.Algorithm, name string, spec exp.GraphSpec) {
	g, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	p := algreg.Params{B: 2, C: 2, Mode: "wide"}
	if a.Kind == "edge" {
		p.C = 0
	}
	if err := a.Canon(&p); err != nil {
		b.Fatal(err)
	}
	var run func(dist.Engine) (dist.Stats, error)
	if a.Kind == "edge" {
		algo, _, err := a.BuildEdge(g, p)
		if err != nil {
			b.Fatal(err)
		}
		run = servedRun(g, algo)
	} else {
		algo, _, err := a.BuildVertex(g, p)
		if err != nil {
			b.Fatal(err)
		}
		run = servedRun(g, algo)
	}
	for _, e := range []dist.Engine{dist.Compiled, dist.Lockstep} {
		b.Run(name+"/"+e.String(), func(b *testing.B) {
			b.ReportAllocs()
			var st dist.Stats
			for i := 0; i < b.N; i++ {
				if st, err = run(e); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Rounds), "rounds")
		})
	}
}

// servedRun returns one dist.RunAlgo of algo on g per call, on the given
// engine.
func servedRun[T any](g *graph.Graph, algo dist.Algo[T]) func(dist.Engine) (dist.Stats, error) {
	return func(e dist.Engine) (dist.Stats, error) {
		res, err := dist.RunAlgo(g, algo, dist.WithEngine(e))
		if err != nil {
			return dist.Stats{}, err
		}
		return res.Stats, nil
	}
}
