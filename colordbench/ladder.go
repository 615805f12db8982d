package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/algreg"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/service"
)

// The ladder: colord's inner layers have no hooks the benchmark could time
// from outside, so a traced run replays a sample of the workload's own
// inputs straight through each layer's public functions, one rung at a
// time. A rung's self time is its own measurement; the slow lane's is the
// whole HandleRaw minus the rungs it contains.

type ladderSample struct {
	req  service.Request
	body []byte
}

func samplesOf(reqs []service.Request, bodies [][]byte) []ladderSample {
	out := make([]ladderSample, len(reqs))
	for i := range reqs {
		out[i] = ladderSample{req: reqs[i], body: bodies[i]}
	}
	return out
}

// distLabels are the servable algorithms, as kind-name.
var distLabels = []string{"edge-be", "edge-pr", "edge-greedy", "edge-fewcolors", "vertex-be", "vertex-greedy"}

// builtAlgo is a request's algorithm resolved through the registry and built
// for its graph, as the service's resolve step does.
type builtAlgo struct {
	label   string
	edge    dist.Algo[[]int]
	vertex  dist.Algo[int]
	palette int
}

// buildAlgo repeats the service's parameter defaults, which it does not
// export. colorLadder compares each rung's result with the service's answer
// for the same body, so a default that drifts fails the run rather than
// timing a different algorithm.
func buildAlgo(g *graph.Graph, req service.Request) (builtAlgo, error) {
	alg, err := algreg.Resolve(req.Kind, req.Alg, req.Quality)
	if err != nil {
		return builtAlgo{}, err
	}
	p := algreg.Params{B: req.B, P: req.P, C: req.C, Mode: req.Mode, Seed: req.Seed}
	if p.B == 0 {
		p.B = 2
	}
	if p.C == 0 {
		p.C = 2
	}
	if p.Mode == "" {
		p.Mode = "wide"
	}
	if req.Kind == "edge" {
		p.C = 0
	}
	if err := alg.Canon(&p); err != nil {
		return builtAlgo{}, err
	}
	out := builtAlgo{label: req.Kind + "-" + alg.Name}
	if req.Kind == "edge" {
		out.edge, out.palette, err = alg.BuildEdge(g, p)
	} else {
		out.vertex, out.palette, err = alg.BuildVertex(g, p)
	}
	return out, err
}

// sameAnswer checks that the ladder's rungs reproduced the service's answer
// body: the same palette bound, colors and run statistics.
func sameAnswer(served []byte, palette int, colors []int, stats dist.Stats) error {
	var resp service.Response
	if err := json.Unmarshal(served, &resp); err != nil {
		return fmt.Errorf("undecodable body: %v", err)
	}
	got := dist.Stats{Rounds: resp.Stats.Rounds, Bytes: resp.Stats.Bytes,
		MaxMessageBytes: resp.Stats.MaxMessageBytes, Activations: resp.Stats.Activations}
	switch {
	case resp.Palette != palette:
		return fmt.Errorf("palette bound %d, the service's %d", palette, resp.Palette)
	case !slices.Equal(resp.Colors, colors):
		return fmt.Errorf("colors differ from the service's")
	case got != stats:
		return fmt.Errorf("stats %+v, the service's %+v", stats, got)
	}
	return nil
}

// ladderGraph is a graph the ladder built, with runner pools sized like the
// service's.
type ladderGraph struct {
	g      *graph.Graph
	ints   *dist.Pool[int]
	slices *dist.Pool[[]int]
}

// colorLadder replays samples through a fresh colord's HandleRaw (first
// sighting: the slow lane; repeats: the fast lane) and through the layers
// the slow lane calls: graph build and fingerprint, registry build, the
// dist run on a pooled runner (a fresh pool for a graph not seen before),
// and the legality check.
func colorLadder(b *bench, samples []ladderSample) {
	svc := service.New(colordConfig())
	defer svc.Close()
	workers := runtime.GOMAXPROCS(0)
	graphs := map[string]*ladderGraph{}
	defer func() {
		for _, lg := range graphs {
			lg.ints.Close()
			lg.slices.Close()
		}
	}()
	var (
		slowSelf, graphH, algregH, checkH hist
		distH                             = map[string]*hist{}
		sum                               dist.Stats
		mallocs                           uint64
		runs                              int
	)
	for _, l := range distLabels {
		distH[l] = &hist{}
	}
	for _, s := range samples {
		t0 := time.Now()
		served, _, _, err := svc.HandleRaw(s.body)
		total := time.Since(t0)
		if err != nil {
			b.fail("ladder HandleRaw: %v", err)
			continue
		}
		key := s.req.Graph.String()
		lg, seen := graphs[key]
		var graphT time.Duration
		if !seen {
			t := time.Now()
			g, err := s.req.Graph.Build()
			if err != nil {
				b.fail("ladder graph %s: %v", key, err)
				continue
			}
			g.Fingerprint() // timed only: the service fingerprints every graph it builds
			graphT = time.Since(t)
			graphH.record(graphT)
			lg = &ladderGraph{g: g, ints: dist.NewPool[int](g, workers), slices: dist.NewPool[[]int](g, workers)}
			graphs[key] = lg
		}

		t := time.Now()
		algo, err := buildAlgo(lg.g, s.req)
		algregT := time.Since(t)
		if err != nil {
			b.fail("ladder build %s: %v", key, err)
			continue
		}
		algregH.record(algregT)

		opts := []dist.Option{dist.WithSeed(s.req.Seed), dist.WithEngine(dist.Compiled)}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var (
			stats  dist.Stats
			ports  [][]int
			vcolor []int
		)
		t = time.Now()
		if s.req.Kind == "edge" {
			var res *dist.Result[[]int]
			if res, err = lg.slices.RunAlgo(algo.edge, opts...); err == nil {
				stats, ports = res.Stats, res.Outputs
			}
		} else {
			var res *dist.Result[int]
			if res, err = lg.ints.RunAlgo(algo.vertex, opts...); err == nil {
				stats, vcolor = res.Stats, res.Outputs
			}
		}
		distT := time.Since(t)
		runtime.ReadMemStats(&m1)
		if err != nil {
			b.fail("ladder run %s: %v", algo.label, err)
			continue
		}
		distH[algo.label].record(distT)
		mallocs += m1.Mallocs - m0.Mallocs
		runs++
		sum.Rounds += stats.Rounds
		sum.Bytes += stats.Bytes
		sum.Activations += stats.Activations
		sum.MaxMessageBytes = max(sum.MaxMessageBytes, stats.MaxMessageBytes)

		t = time.Now()
		colors := vcolor
		if s.req.Kind == "edge" {
			if colors, err = graph.MergePortColors(lg.g, ports); err == nil {
				err = graph.CheckEdgeColoring(lg.g, colors)
			}
		} else {
			err = graph.CheckVertexColoring(lg.g, vcolor)
		}
		checkT := time.Since(t)
		if err != nil {
			b.fail("ladder check %s: %v", algo.label, err)
			continue
		}
		checkH.record(checkT)
		slowSelf.record(total - graphT - algregT - distT - checkT)
		if err := sameAnswer(served, algo.palette, colors, stats); err != nil {
			b.fail("ladder %s on %s differs from the service: %v", algo.label, key, err)
		}
	}

	// Fast lane: every sample body is now a repeat. Passes over the sample
	// are timed whole, since one hit is a few dozen nanoseconds.
	var (
		fast    hist
		fastErr error
	)
	for pass := 0; pass < 200 && len(samples) > 0; pass++ {
		t := time.Now()
		for _, s := range samples {
			if _, _, _, err := svc.HandleRaw(s.body); err != nil {
				fastErr = err
			}
		}
		fast.record(time.Since(t) / time.Duration(len(samples)))
	}
	if fastErr != nil {
		b.fail("ladder fast lane: %v", fastErr)
	}
	b.setLayer("service.fastlane_ns.p50", fast.quantile(0.5))
	b.setLayer("service.slowlane_self_us.p50", slowSelf.quantile(0.5)/1e3)
	b.setLayer("service.slowlane_self_us.p99", slowSelf.quantile(0.99)/1e3)
	b.setLayer("graph.build_us.p50", graphH.quantile(0.5)/1e3)
	b.setLayer("graph.build_us.p99", graphH.quantile(0.99)/1e3)
	b.setLayer("algreg.build_us.p50", algregH.quantile(0.5)/1e3)
	b.setLayer("check.legality_us.p50", checkH.quantile(0.5)/1e3)
	for _, l := range distLabels {
		b.setLayer(fmt.Sprintf("dist.run_us.%s.p50", l), distH[l].quantile(0.5)/1e3)
		b.setLayer(fmt.Sprintf("dist.run_us.%s.p99", l), distH[l].quantile(0.99)/1e3)
	}
	b.setLayer("dist.allocs_per_run", ratio(float64(mallocs), float64(runs)))
	b.setLayer("dist.rounds", float64(sum.Rounds))
	b.setLayer("dist.msg_bytes", float64(sum.Bytes))
	b.setLayer("dist.max_msg_bytes", float64(sum.MaxMessageBytes))
	b.setLayer("dist.activations", float64(sum.Activations))
}

// spanLayers derives the span-measured layer metrics: the wire (client span
// minus the handler span it parents), the node handlers, and the gateway
// hop split into its own time and the upstream call.
func spanLayers(b *bench, spans []span) {
	var client, wire, handler, gwSelf, upstream hist
	upstreamOf := childDurations(spans, spUpstream)
	for i, s := range spans {
		d := time.Duration(s.dur())
		switch s.name {
		case spClient:
			client.record(d)
		case spColor, spMutate, spGateway:
			if s.parent >= 0 {
				wire.record(time.Duration(spans[s.parent].dur()) - d)
			}
			if s.name != spGateway {
				handler.record(d)
			} else if up, ok := upstreamOf[int32(i)]; ok {
				gwSelf.record(d - time.Duration(up))
			}
		case spUpstream:
			upstream.record(d)
		}
	}
	us := func(h *hist, q float64) float64 { return h.quantile(q) / 1e3 }
	b.setLayer("net.wire_us.p50", us(&wire, 0.5))
	b.setLayer("net.wire_us.p99", us(&wire, 0.99))
	b.setLayer("service.http_us.p50", us(&handler, 0.5))
	b.setLayer("service.http_us.p99", us(&handler, 0.99))
	b.setLayer("cluster.gateway_self_us.p50", us(&gwSelf, 0.5))
	b.setLayer("cluster.gateway_self_us.p99", us(&gwSelf, 0.99))
	b.setLayer("cluster.upstream_us.p50", us(&upstream, 0.5))
	b.setLayer("cluster.upstream_us.p99", us(&upstream, 0.99))
	// The self times along the blocking path, against what the client saw.
	selfSum := us(&wire, 0.5) + us(&handler, 0.5)
	if gwSelf.n > 0 {
		selfSum = us(&wire, 0.5) + us(&gwSelf, 0.5) + us(&upstream, 0.5)
	}
	b.setLayer("trace.self_sum_frac", ratio(selfSum, us(&client, 0.5)))
}
