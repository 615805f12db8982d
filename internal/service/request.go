package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/algreg"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Request is one coloring request as it arrives off the wire. The server
// builds the graph from the spec (generators are seed-deterministic, so the
// spec transmits the graph in a few bytes), runs the selected algorithm, and
// returns the coloring.
//
// Engine and Shards are execution hints only: every engine produces
// byte-identical outputs (the dist contract), so they are excluded from the
// cache key — a request served from a sharded run is a cache hit for the
// same request asking for lockstep.
type Request struct {
	// Kind is "edge" or "vertex".
	Kind string `json:"kind"`
	// Alg selects the algorithm by name; the servable names are the algreg
	// entries (edge: "be", "pr", "greedy", "fewcolors"; vertex: "be",
	// "greedy"). Empty with Quality set picks that tier's default.
	Alg string `json:"alg,omitempty"`
	// Quality is the palette-size knob: "fast" (today's behavior, the
	// fewest-rounds tier) or "fewcolors" (a measured palette near Δ at a
	// higher round cost). Empty imposes nothing; set alongside Alg it must
	// match the named algorithm's tier. Not part of the cache key — the
	// resolved algorithm is.
	Quality string `json:"quality,omitempty"`
	// Graph names the instance.
	Graph exp.GraphSpec `json:"graph"`
	// Seed is the algorithm seed (dist.WithSeed); part of the cache key.
	Seed int64 `json:"seed,omitempty"`
	// B, P are the Algorithm 1 recursion parameters of the "be" algorithms
	// (0 = defaults: b=2; p=6 for edges, 4c+1 for vertices).
	B int `json:"b,omitempty"`
	P int `json:"p,omitempty"`
	// C is the neighborhood-independence bound assumed for vertex "be"
	// (0 = 2, the line-graph value). Results are legality-checked before
	// caching, so an optimistic bound fails loudly instead of silently.
	C int `json:"c,omitempty"`
	// Mode is the §5 message mode of edge "be": "wide" (default) or
	// "short".
	Mode string `json:"mode,omitempty"`
	// Engine optionally overrides the server's scheduler for this run:
	// "goroutines", "lockstep", "sharded", or "compiled". Not part of the
	// cache key — every engine produces byte-identical results.
	Engine string `json:"engine,omitempty"`
	// Shards optionally pins the shard count of a "goroutines" or
	// "sharded" run; the runtime clamps it to the vertex count and to
	// dist.MaxShards (64). Not part of the cache key.
	Shards int `json:"shards,omitempty"`
}

// Stats mirrors dist.Stats in the response body.
type Stats struct {
	Rounds          int `json:"rounds"`
	Bytes           int `json:"bytes"`
	MaxMessageBytes int `json:"maxMessageBytes"`
	Activations     int `json:"activations"`
}

// Response is the service's answer. For Kind "edge", Colors[i] is the color
// of the edge with id i (the canonical graph.Edges order); for "vertex",
// Colors[v] is the color of vertex index v. Bodies are byte-identical
// whether served from the cache or computed fresh — the transport marks the
// difference in the X-Colord-Cache header, never in the body.
type Response struct {
	// Key is the deterministic cache key of the request (hex).
	Key   string `json:"key"`
	Kind  string `json:"kind"`
	Alg   string `json:"alg"`
	Graph string `json:"graph"`
	N     int    `json:"n"`
	M     int    `json:"m"`
	Delta int    `json:"delta"`
	// Palette is the algorithm's color bound for this instance; NumColors
	// (<= Palette) is the count actually used.
	Palette   int   `json:"palette"`
	NumColors int   `json:"numColors"`
	Colors    []int `json:"colors"`
	Stats     Stats `json:"stats"`
}

// DetailResponse is the ?detail=1 envelope: the standard response plus the
// quality-observability fields (resolved algorithm, tier, palette bound,
// measured colors, and the run's round/activation cost). The default body
// stays byte-identical to previous releases; this envelope is additive and
// versioned by its own shape.
type DetailResponse struct {
	Key     string `json:"key"`
	Kind    string `json:"kind"`
	Alg     string `json:"alg"`
	Quality string `json:"quality"`
	Graph   string `json:"graph"`
	N       int    `json:"n"`
	M       int    `json:"m"`
	Delta   int    `json:"delta"`
	// PaletteBound is the algorithm's guaranteed bound for this instance;
	// ColorsUsed is the measured distinct-color count (<= PaletteBound).
	PaletteBound int   `json:"paletteBound"`
	ColorsUsed   int   `json:"colorsUsed"`
	Rounds       int   `json:"rounds"`
	Activations  int   `json:"activations"`
	Colors       []int `json:"colors"`
}

// canonReq is a validated request bound to its cached graph: everything an
// execution needs, resolved up front so exec-time errors are limited to
// genuine runtime failures.
type canonReq struct {
	req   Request // defaults filled in
	alg   *algreg.Algorithm
	entry *graphEntry
	key   string
	// hash is cacheHashString(key), computed once at resolve time: it picks
	// the result-cache shard and the counter stripe without rehashing.
	hash   uint64
	opts   []dist.Option
	runner func(c *canonReq) (*record, error)
}

// record is the cache-layer value: the response payload in wire encoding.
// The JSON response is always rendered from a decoded record, so cache hits
// and fresh computations produce identical bodies by construction. The
// graph's *name* is deliberately absent: the key is the graph fingerprint,
// and distinct specs can build fingerprint-identical graphs (Path(6) and
// Grid(6,1), say) — each response must echo its own request's spec, while
// colors, stats, and shape are key-determined and shared.
type record struct {
	kind, alg, quality   string
	n, m, delta, palette int
	colorsUsed           int
	colors               []int
	stats                dist.Stats
}

// recordTag versions the wire record; v2 added quality and colorsUsed. A
// v1 peer's record fails the tag check and the fill degrades to a local
// run — never to serving a misdecoded body.
const recordTag = "colord-rec-v2"

func (rec *record) encode() []byte {
	var w wire.Writer
	w.String(recordTag)
	w.String(rec.kind).String(rec.alg).String(rec.quality)
	w.Int(rec.n).Int(rec.m).Int(rec.delta).Int(rec.palette).Int(rec.colorsUsed)
	w.Int(rec.stats.Rounds).Int(rec.stats.Bytes).Int(rec.stats.MaxMessageBytes).Int(rec.stats.Activations)
	w.Ints(rec.colors)
	return w.Bytes()
}

func decodeRecord(b []byte) (*record, error) {
	r := wire.NewReader(b)
	if tag := r.ReadString(); tag != recordTag {
		return nil, fmt.Errorf("service: cache record tag %q, want %q", tag, recordTag)
	}
	rec := &record{}
	rec.kind, rec.alg, rec.quality = r.ReadString(), r.ReadString(), r.ReadString()
	rec.n, rec.m, rec.delta, rec.palette, rec.colorsUsed = r.Int(), r.Int(), r.Int(), r.Int(), r.Int()
	rec.stats = dist.Stats{Rounds: r.Int(), Bytes: r.Int(), MaxMessageBytes: r.Int(), Activations: r.Int()}
	rec.colors = r.Ints()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("service: corrupt cache record: %w", err)
	}
	if rec.colors == nil {
		rec.colors = []int{}
	}
	return rec, nil
}

func (rec *record) response(key, graphName string) *Response {
	return &Response{
		Key:   key,
		Kind:  rec.kind,
		Alg:   rec.alg,
		Graph: graphName,
		N:     rec.n, M: rec.m, Delta: rec.delta,
		Palette:   rec.palette,
		NumColors: rec.colorsUsed,
		Colors:    rec.colors,
		Stats: Stats{
			Rounds:          rec.stats.Rounds,
			Bytes:           rec.stats.Bytes,
			MaxMessageBytes: rec.stats.MaxMessageBytes,
			Activations:     rec.stats.Activations,
		},
	}
}

func (rec *record) detail(key, graphName string) *DetailResponse {
	return &DetailResponse{
		Key:  key,
		Kind: rec.kind, Alg: rec.alg, Quality: rec.quality,
		Graph: graphName,
		N:     rec.n, M: rec.m, Delta: rec.delta,
		PaletteBound: rec.palette,
		ColorsUsed:   rec.colorsUsed,
		Rounds:       rec.stats.Rounds,
		Activations:  rec.stats.Activations,
		Colors:       rec.colors,
	}
}

// cacheKey derives the deterministic cache key: a hash over the graph
// fingerprint and every output-affecting request parameter. Engine and shard
// choice are deliberately absent — outputs are engine-independent.
func cacheKey(req *Request, fp graph.Fingerprint) string {
	var w wire.Writer
	w.String("colord-key-v1")
	w.String(req.Kind).String(req.Alg).String(req.Mode)
	w.Int(req.B).Int(req.P).Int(req.C)
	w.Uint(uint64(req.Seed))
	w.Raw(fp[:])
	sum := sha256.Sum256(w.Bytes())
	return hex.EncodeToString(sum[:])
}
