package service

import (
	"fmt"
	"sync"

	"repro/internal/algreg"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/graph"
)

// graphEntry is one cached built graph. Runs on it are one-shot
// dist.RunAlgo calls, so the entry holds no per-vertex runtime state between
// requests.
type graphEntry struct {
	spec exp.GraphSpec

	once sync.Once // builds g, fp
	g    *graph.Graph
	fp   graph.Fingerprint
	err  error
}

func (e *graphEntry) build() {
	e.once.Do(func() {
		e.g, e.err = e.spec.Build()
		if e.err == nil {
			e.fp = e.g.Fingerprint()
		}
	})
}

// graphFor returns the graph-cache entry for spec, building the graph on first
// use. Eviction just drops an entry: runs in flight keep their own reference
// to the graph.
func (s *Service) graphFor(spec exp.GraphSpec) (*graphEntry, error) {
	key := spec.String()
	h := cacheHashString(key)
	e, ok := s.graphs.getHash(key, h)
	if !ok {
		e = s.graphs.putHash(key, h, &graphEntry{spec: spec}, 0)
	}
	e.build()
	if e.err != nil {
		// A failed spec must not occupy a slot of the bounded cache: a
		// stream of distinct garbage specs would otherwise evict every warm
		// graph. Build is deterministic, so whichever entry holds the key
		// now fails the same way.
		s.graphs.remove(key, h)
	}
	return e, e.err
}

// resolve validates a request against its built graph and returns the
// canonical form: algorithm resolved through the registry (including the
// quality knob), defaults filled, cache key derived, and a runner closure
// bound to the entry's graph. All parameter validation happens here, before
// the request is queued — exec-time failures are limited to genuine runtime
// errors (vertex panics, round caps).
func (s *Service) resolve(req Request) (*canonReq, error) {
	switch req.Kind {
	case "edge", "vertex":
	default:
		return nil, fmt.Errorf("service: unknown kind %q (want edge or vertex)", req.Kind)
	}
	alg, err := algreg.Resolve(req.Kind, req.Alg, req.Quality)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	req.Alg = alg.Name
	engine := s.cfg.Engine
	if req.Engine != "" {
		var err error
		if engine, err = dist.ParseEngine(req.Engine); err != nil {
			return nil, err
		}
	}
	entry, err := s.graphFor(req.Graph)
	if err != nil {
		return nil, err
	}
	g := entry.g

	// Shared parameter canonicalization, then the algorithm's own: the two
	// stages together determine the canonical cache key.
	params := algreg.Params{B: req.B, P: req.P, C: req.C, Mode: req.Mode, Seed: req.Seed}
	if params.B == 0 {
		params.B = 2
	}
	if params.C == 0 {
		params.C = 2
	}
	if params.Mode == "" {
		params.Mode = "wide"
	}
	if params.B < 2 || params.C < 1 || params.P < 0 {
		return nil, fmt.Errorf("service: invalid plan parameters b=%d p=%d c=%d", params.B, params.P, params.C)
	}
	if req.Kind == "edge" {
		params.C = 0 // edge algorithms work on c = 2 by construction (Lemma 5.1)
	}
	if err := alg.Canon(&params); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	req.B, req.P, req.C, req.Mode = params.B, params.P, params.C, params.Mode

	c := &canonReq{
		alg:   alg,
		entry: entry,
		opts: []dist.Option{
			dist.WithSeed(req.Seed),
			dist.WithEngine(engine),
			dist.WithShards(req.Shards),
		},
	}
	if req.Kind == "edge" {
		algo, palette, err := alg.BuildEdge(g, params)
		if err != nil {
			return nil, err
		}
		c.runner = edgeRunner(algo, palette)
	} else {
		algo, palette, err := alg.BuildVertex(g, params)
		if err != nil {
			return nil, err
		}
		c.runner = vertexRunner(algo, palette)
	}

	c.req = req
	c.key = cacheKey(&req, entry.fp)
	c.hash = cacheHashString(c.key)
	return c, nil
}

// baseRecord fills the graph-shaped half of a record.
func (c *canonReq) baseRecord(palette int) *record {
	g := c.entry.g
	return &record{
		kind:    c.req.Kind,
		alg:     c.req.Alg,
		quality: c.alg.Quality,
		n:       g.N(),
		m:       g.M(),
		delta:   g.MaxDegree(),
		palette: palette,
	}
}

// edgeRunner executes an edge algorithm (per-vertex port colorings) as a
// one-shot run on the entry's graph, merges the two endpoint views, and
// legality-checks the result before it can reach the cache.
func edgeRunner(algo dist.Algo[[]int], palette int) func(*canonReq) (*record, error) {
	return func(c *canonReq) (*record, error) {
		res, err := dist.RunAlgo(c.entry.g, algo, c.opts...)
		if err != nil {
			return nil, err
		}
		g := c.entry.g
		colors, err := graph.MergePortColors(g, res.Outputs)
		if err != nil {
			return nil, err
		}
		if err := graph.CheckEdgeColoring(g, colors); err != nil {
			return nil, fmt.Errorf("service: %s/%s produced an illegal coloring: %w", c.req.Kind, c.req.Alg, err)
		}
		rec := c.baseRecord(palette)
		rec.colors = colors
		rec.colorsUsed = graph.CountColors(colors)
		rec.stats = res.Stats
		return rec, nil
	}
}

// vertexRunner is edgeRunner's vertex-coloring counterpart.
func vertexRunner(algo dist.Algo[int], palette int) func(*canonReq) (*record, error) {
	return func(c *canonReq) (*record, error) {
		res, err := dist.RunAlgo(c.entry.g, algo, c.opts...)
		if err != nil {
			return nil, err
		}
		if err := graph.CheckVertexColoring(c.entry.g, res.Outputs); err != nil {
			return nil, fmt.Errorf("service: %s/%s produced an illegal coloring: %w", c.req.Kind, c.req.Alg, err)
		}
		rec := c.baseRecord(palette)
		rec.colors = res.Outputs
		rec.colorsUsed = graph.CountColors(res.Outputs)
		rec.stats = res.Stats
		return rec, nil
	}
}
