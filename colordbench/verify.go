package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/graph"
	"repro/internal/service"
)

// panelSeeds is the number of seeds the quality panel takes per template.
const panelSeeds = 8

// qualityPanel is the fixed set of /v1/color requests the read workloads
// take colors_used over: every cold-mix template, so both quality tiers,
// with algorithm and graph seeds 1 to panelSeeds. It is the same for every
// --seed, so colors_used moves only when an algorithm's output does.
func qualityPanel() []service.Request {
	var out []service.Request
	for s := int64(1); s <= panelSeeds; s++ {
		for _, r := range coldMix {
			r.Seed = s
			if seededFamily(r.Graph.Family) {
				r.Graph.Seed = s
			}
			out = append(out, r)
		}
	}
	return out
}

// quality is what a fixed panel measures, as its answers report it: the
// mean number of colors and of rounds per answer, and the largest message
// any of the runs behind them sent.
type quality struct{ colors, rounds, maxMsg float64 }

func (b *bench) setQuality(q quality) {
	b.setE2E("colors_used", q.colors)
	b.setE2E("rounds", q.rounds)
	b.setE2E("max_msg_bytes", q.maxMsg)
}

// probePanel asks rc's server (host) for the quality panel, off the clock,
// and checks every answer.
func probePanel(b *bench, rc *rawClient, host string) quality {
	panel := qualityPanel()
	b.attempted += int64(len(panel))
	_, wires, err := encode(host, panel)
	if err != nil {
		b.fail("quality panel: %v", err)
		return quality{}
	}
	var (
		v              verifier
		colors, rounds []float64
		q              quality
	)
	for k, w := range wires {
		resp, err := rc.do(w)
		if err != nil {
			b.fail("quality panel request %d: %v", k, err)
			return quality{}
		}
		if resp.status != 200 {
			b.fail("quality panel request %d: status %d: %s", k, resp.status, resp.body)
			continue
		}
		c, err := v.coloring(panel[k], resp.body)
		if err != nil {
			b.fail("quality panel request %d: %v", k, err)
			continue
		}
		colors = append(colors, float64(c.NumColors))
		rounds = append(rounds, float64(c.Stats.Rounds))
		q.maxMsg = max(q.maxMsg, float64(c.Stats.MaxMessageBytes))
	}
	q.colors, q.rounds = mean(colors), mean(rounds)
	return q
}

// verifier checks served colorings against graphs the benchmark rebuilds
// itself from the request's spec.
type verifier struct {
	graphs map[string]*graph.Graph
}

func (v *verifier) graph(req service.Request) (*graph.Graph, error) {
	key := req.Graph.String()
	if g, ok := v.graphs[key]; ok {
		return g, nil
	}
	g, err := req.Graph.Build()
	if err != nil {
		return nil, err
	}
	if v.graphs == nil {
		v.graphs = map[string]*graph.Graph{}
	}
	v.graphs[key] = g
	return g, nil
}

// coloring decodes a /v1/color body and checks it answers req: the right
// graph, a legal coloring of it, no color above the palette bound, and an
// honest color count.
func (v *verifier) coloring(req service.Request, body []byte) (*service.Response, error) {
	var resp service.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("undecodable body: %v", err)
	}
	g, err := v.graph(req)
	if err != nil {
		return nil, err
	}
	if resp.Kind != req.Kind || resp.Graph != req.Graph.String() || resp.N != g.N() || resp.M != g.M() || resp.Delta != g.MaxDegree() {
		return nil, fmt.Errorf("answer is for %s %s (n=%d m=%d Δ=%d), asked %s %s (n=%d m=%d Δ=%d)",
			resp.Kind, resp.Graph, resp.N, resp.M, resp.Delta, req.Kind, req.Graph, g.N(), g.M(), g.MaxDegree())
	}
	if req.Kind == "edge" {
		err = graph.CheckEdgeColoring(g, resp.Colors)
	} else {
		err = graph.CheckVertexColoring(g, resp.Colors)
	}
	if err != nil {
		return nil, err
	}
	if mc := graph.MaxColor(resp.Colors); mc > resp.Palette {
		return nil, fmt.Errorf("color %d above the palette bound %d", mc, resp.Palette)
	}
	if n := graph.CountColors(resp.Colors); n != resp.NumColors {
		return nil, fmt.Errorf("numColors %d, but %d distinct colors served", resp.NumColors, n)
	}
	return &resp, nil
}
