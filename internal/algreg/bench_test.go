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

// BenchmarkServedAlgos runs every servable algorithm on its small-mix graph
// with the service's default parameters, under the Compiled engine the way
// the service does — one dist.RunAlgo per request — and under Lockstep (the
// scheduler on a reused Runner). Under Compiled the greedy algorithms,
// edge/pr and edge/be (whose default plan has depth 0 on its graph) run
// their flat passes, and vertex/be and edge/fewcolors one-shot Lockstep
// runs on fresh Runners, so those compiled/lockstep pairs price what
// keeping no vertex state between runs costs per run. scripts/bench.sh
// records these rows in BENCH_runtime.json.
func BenchmarkServedAlgos(b *testing.B) {
	for _, a := range algreg.Servable() {
		name := a.Kind + "/" + a.Name
		spec, ok := smallMixGraphs[name]
		if !ok {
			b.Fatalf("%s: no small-mix graph", name)
		}
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
			run = servedRun(b, g, algo)
		} else {
			algo, _, err := a.BuildVertex(g, p)
			if err != nil {
				b.Fatal(err)
			}
			run = servedRun(b, g, algo)
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
}

// servedRun returns one run of algo on g per call: a Compiled run goes
// through dist.RunAlgo, as the service's misses do; any other engine runs on
// one Runner reused across calls.
func servedRun[T any](b *testing.B, g *graph.Graph, algo dist.Algo[T]) func(dist.Engine) (dist.Stats, error) {
	r := dist.NewRunner[T](g)
	b.Cleanup(r.Close)
	return func(e dist.Engine) (dist.Stats, error) {
		var res *dist.Result[T]
		var err error
		if e == dist.Compiled {
			res, err = dist.RunAlgo(g, algo, dist.WithEngine(e))
		} else {
			res, err = r.RunAlgo(algo, dist.WithEngine(e))
		}
		if err != nil {
			return dist.Stats{}, err
		}
		return res.Stats, nil
	}
}
