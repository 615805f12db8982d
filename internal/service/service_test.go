package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/graph"
)

func testConfig() Config {
	return Config{Workers: 2, CacheEntries: 128, GraphEntries: 8}
}

func gnmReq(kind, alg string, seed int64) Request {
	return Request{
		Kind:  kind,
		Alg:   alg,
		Graph: exp.GraphSpec{Family: "gnm", N: 40, M: 120, Seed: 1},
		Seed:  seed,
	}
}

func TestHandleKinds(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	cases := []Request{
		gnmReq("edge", "be", 0),
		gnmReq("edge", "pr", 0),
		gnmReq("edge", "greedy", 0),
		gnmReq("vertex", "be", 0),
		gnmReq("vertex", "greedy", 0),
		{Kind: "edge", Alg: "be", Graph: exp.GraphSpec{Family: "gnm", N: 40, M: 120, Seed: 1}, Mode: "short"},
		{Kind: "vertex", Alg: "be", Graph: exp.GraphSpec{Family: "powercycle", N: 30, Deg: 3}, C: 2},
		{Kind: "edge", Alg: "pr", Graph: exp.GraphSpec{Family: "path", N: 1}}, // edgeless
		{Kind: "vertex", Alg: "be", Graph: exp.GraphSpec{Family: "path", N: 3, Seed: 0}},
	}
	g, err := (exp.GraphSpec{Family: "gnm", N: 40, M: 120, Seed: 1}).Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range cases {
		resp, outcome, err := s.Handle(req)
		if err != nil {
			t.Fatalf("%s/%s: %v", req.Kind, req.Alg, err)
		}
		if outcome != Miss {
			t.Fatalf("%s/%s: first request outcome %q, want miss", req.Kind, req.Alg, outcome)
		}
		wantLen := resp.N
		if req.Kind == "edge" {
			wantLen = resp.M
		}
		if len(resp.Colors) != wantLen {
			t.Fatalf("%s/%s: %d colors for %d items", req.Kind, req.Alg, len(resp.Colors), wantLen)
		}
		if resp.NumColors > resp.Palette && resp.Palette > 0 {
			t.Fatalf("%s/%s: used %d colors, palette bound %d", req.Kind, req.Alg, resp.NumColors, resp.Palette)
		}
		if req.Graph.Family == "gnm" && req.Kind == "edge" && len(resp.Colors) > 0 {
			if err := graph.CheckEdgeColoring(g, resp.Colors); err != nil {
				t.Fatalf("%s/%s: illegal coloring escaped: %v", req.Kind, req.Alg, err)
			}
		}
	}
}

func TestCacheHitIsByteIdentical(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	req := gnmReq("edge", "be", 7)
	fresh, outcome, err := s.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Miss {
		t.Fatalf("outcome %q, want miss", outcome)
	}
	runsAfterMiss := s.Stats().Runs
	hit, outcome, err := s.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Hit {
		t.Fatalf("outcome %q, want hit", outcome)
	}
	if got := s.Stats(); got.Runs != runsAfterMiss {
		t.Fatalf("cache hit executed a run: %d -> %d", runsAfterMiss, got.Runs)
	}
	a, _ := json.Marshal(fresh)
	b, _ := json.Marshal(hit)
	if !bytes.Equal(a, b) {
		t.Fatalf("hit body differs from fresh body:\n%s\n%s", a, b)
	}

	// The same request on a different engine must also hit: outputs are
	// engine-independent, so the key excludes the engine.
	req.Engine = "lockstep"
	if _, outcome, err = s.Handle(req); err != nil || outcome != Hit {
		t.Fatalf("other-engine request: outcome %q err %v, want hit", outcome, err)
	}
	// A different seed is a different result.
	req2 := gnmReq("edge", "be", 8)
	if _, outcome, err = s.Handle(req2); err != nil || outcome != Miss {
		t.Fatalf("other-seed request: outcome %q err %v, want miss", outcome, err)
	}
}

func TestHandleRejectsBadRequests(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	bad := []Request{
		{Kind: "nope", Alg: "be", Graph: exp.GraphSpec{Family: "path", N: 4}},
		{Kind: "edge", Alg: "nope", Graph: exp.GraphSpec{Family: "path", N: 4}},
		{Kind: "edge", Alg: "be", Graph: exp.GraphSpec{Family: "nosuch", N: 4}},
		{Kind: "edge", Alg: "be", Graph: exp.GraphSpec{Family: "gnm", N: 4, M: 99}},
		{Kind: "edge", Alg: "be", Graph: exp.GraphSpec{Family: "path", N: 4}, Mode: "nope"},
		{Kind: "edge", Alg: "be", Graph: exp.GraphSpec{Family: "path", N: 4}, Engine: "nope"},
		{Kind: "vertex", Alg: "be", Graph: exp.GraphSpec{Family: "path", N: 4}, B: 1},
	}
	for _, req := range bad {
		if _, _, err := s.Handle(req); err == nil {
			t.Fatalf("%+v: want error", req)
		}
	}
	if errs := s.Stats().Errors; errs != int64(len(bad)) {
		t.Fatalf("error count %d, want %d", errs, len(bad))
	}
}

// TestOptimisticCIsRejected pins the legality firewall: claiming c=1 for a
// graph with neighborhood independence 2 must yield an error, not an illegal
// cached coloring.
func TestOptimisticCIsRejected(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	req := Request{
		Kind:  "vertex",
		Alg:   "be",
		Graph: exp.GraphSpec{Family: "complete", N: 9},
		C:     1,
	}
	resp, _, err := s.Handle(req)
	if err == nil {
		// A lucky plan can still be legal; then nothing to assert.
		if err := graph.CheckVertexColoring(mustBuild(t, req.Graph), resp.Colors); err != nil {
			t.Fatalf("illegal coloring served: %v", err)
		}
	} else if !strings.Contains(err.Error(), "illegal") && !strings.Contains(err.Error(), "service:") && !strings.Contains(err.Error(), "core:") {
		t.Fatalf("unexpected error shape: %v", err)
	}
}

func mustBuild(t *testing.T, spec exp.GraphSpec) *graph.Graph {
	t.Helper()
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAliasedSpecsShareCacheButKeepTheirName: Path(6) and Grid(6,1) build
// fingerprint-identical graphs, so the second request is a cache hit — but
// its body must echo its own spec, not the first requester's.
func TestAliasedSpecsShareCacheButKeepTheirName(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	first, outcome, err := s.Handle(Request{Kind: "vertex", Alg: "greedy", Graph: exp.GraphSpec{Family: "path", N: 6}})
	if err != nil || outcome != Miss {
		t.Fatalf("path request: outcome %q err %v", outcome, err)
	}
	second, outcome, err := s.Handle(Request{Kind: "vertex", Alg: "greedy", Graph: exp.GraphSpec{Family: "grid", N: 6, M: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Hit {
		t.Fatalf("aliased spec outcome %q, want hit (fingerprints should match)", outcome)
	}
	if second.Graph != "grid(w=6,h=1)" {
		t.Fatalf("aliased hit echoes %q, want the request's own spec", second.Graph)
	}
	if first.Graph != "path(n=6)" {
		t.Fatalf("first response names %q", first.Graph)
	}
	a, _ := json.Marshal(first.Colors)
	b, _ := json.Marshal(second.Colors)
	if !bytes.Equal(a, b) {
		t.Fatal("aliased graphs must share colors")
	}
}

// TestRawAliasedSpellingsShareCache drives the raw slow lane: two
// spellings of one request (fields reordered, extra whitespace) and an
// aliased spec that builds a fingerprint-identical graph. Each follow-up
// misses the fast lane, hits the result cache without a new run, and renders
// the first body byte for byte — apart from the alias echoing its own graph
// name. A repeat of each spelling is then a fast-lane hit with the same
// bytes.
func TestRawAliasedSpellingsShareCache(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	first := []byte(`{"kind":"vertex","alg":"greedy","graph":{"family":"path","n":6}}`)
	want, key, outcome, err := s.HandleRaw(first)
	if err != nil || outcome != Miss {
		t.Fatalf("first request: outcome %q err %v, want miss", outcome, err)
	}
	if !bytes.Contains(want, []byte(`"graph":"path(n=6)"`)) {
		t.Fatalf("first body does not name path(n=6): %s", want)
	}
	type spelling struct {
		raw  string
		body []byte
	}
	spellings := []spelling{
		{raw: ` { "graph" : { "n" : 6, "family" : "path" },
			"alg" : "greedy", "kind" : "vertex" } `, body: want},
		{raw: `{"kind":"vertex","alg":"greedy","graph":{"family":"grid","n":6,"m":1}}`,
			body: bytes.Replace(want, []byte(`"graph":"path(n=6)"`), []byte(`"graph":"grid(w=6,h=1)"`), 1)},
	}
	runs := s.Stats().Runs
	for _, sp := range spellings {
		got, k, outcome, err := s.HandleRaw([]byte(sp.raw))
		if err != nil || outcome != Hit {
			t.Fatalf("%s: outcome %q err %v, want hit", sp.raw, outcome, err)
		}
		if k != key {
			t.Fatalf("%s: key %s, want %s", sp.raw, k, key)
		}
		if !bytes.Equal(got, sp.body) {
			t.Fatalf("%s: body\n%s\nwant\n%s", sp.raw, got, sp.body)
		}
	}
	if got := s.Stats().Runs; got != runs {
		t.Fatalf("follow-ups ran %d times, want 0", got-runs)
	}
	fastHits := s.Stats().Fast.Hits
	for _, sp := range append(spellings, spelling{string(first), want}) {
		got, _, outcome, err := s.HandleRaw([]byte(sp.raw))
		if err != nil || outcome != Hit || !bytes.Equal(got, sp.body) {
			t.Fatalf("%s: fast-lane repeat outcome %q err %v, body\n%s", sp.raw, outcome, err, got)
		}
	}
	if got := s.Stats().Fast.Hits - fastHits; got != 3 {
		t.Fatalf("repeats made %d fast-lane hits, want 3", got)
	}
}

// TestFailedSpecsDoNotEvict: distinct invalid specs must not consume
// graph-cache capacity and push out warm graphs.
func TestFailedSpecsDoNotEvict(t *testing.T) {
	cfg := testConfig()
	cfg.GraphEntries = 2
	s := New(cfg)
	defer s.Close()
	warm := Request{Kind: "vertex", Alg: "greedy", Graph: exp.GraphSpec{Family: "cycle", N: 12}}
	if _, _, err := s.Handle(warm); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 10; n++ {
		bad := Request{Kind: "vertex", Alg: "greedy", Graph: exp.GraphSpec{Family: "nosuch", N: n}}
		if _, _, err := s.Handle(bad); err == nil {
			t.Fatal("bad spec must error")
		}
	}
	if graphs := cachedGraphs(s); len(graphs) != 1 || graphs[0] != "cycle(n=12)" {
		t.Fatalf("warm graph evicted by failed specs: %q", graphs)
	}
}

// cachedGraphs lists the specs in s's graph cache, sorted.
func cachedGraphs(s *Service) []string {
	var out []string
	for i := range s.graphs.shards {
		sh := &s.graphs.shards[i]
		sh.mu.Lock()
		for spec := range sh.entries {
			out = append(out, spec)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

func TestGraphCacheEviction(t *testing.T) {
	cfg := testConfig()
	cfg.GraphEntries = 2
	s := New(cfg)
	defer s.Close()
	for n := 10; n < 16; n++ {
		req := Request{Kind: "vertex", Alg: "greedy", Graph: exp.GraphSpec{Family: "cycle", N: n}}
		if _, _, err := s.Handle(req); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(cachedGraphs(s)); got > 2 {
		t.Fatalf("graph cache holds %d entries, cap 2", got)
	}
	// Evicted graphs still answer (from the result cache, or rebuilt).
	req := Request{Kind: "vertex", Alg: "greedy", Graph: exp.GraphSpec{Family: "cycle", N: 10}}
	if _, outcome, err := s.Handle(req); err != nil || outcome != Hit {
		t.Fatalf("post-eviction request: outcome %q err %v, want hit", outcome, err)
	}
}

func TestResultCacheEviction(t *testing.T) {
	c := newShardedLRU[[]byte](2, 0) // capacity 2 ⇒ shardsFor gives 1 shard ⇒ strict LRU
	put := func(k, v string) { c.putHash(k, cacheHashString(k), []byte(v), len(v)) }
	put("a", "1")
	put("b", "22")
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	put("c", "333") // evicts b (LRU)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	st := c.snapshot()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != int64(len("1")+len("333")) {
		t.Fatalf("unexpected cache stats: %+v", st)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(gnmReq("edge", "pr", 3))
	var first []byte
	for i, want := range []Outcome{Miss, Hit} {
		resp, err := http.Post(srv.URL+"/v1/color", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		if got := Outcome(resp.Header.Get("X-Colord-Cache")); got != want {
			t.Fatalf("request %d: X-Colord-Cache %q, want %q", i, got, want)
		}
		if i == 0 {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Fatalf("hit body differs from miss body:\n%s\n%s", first, b)
		}
	}

	resp, err := http.Post(srv.URL+"/v1/color", "application/json", strings.NewReader(`{"kind":`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var st ServiceStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests < 2 || st.Hits < 1 {
		t.Fatalf("statz snapshot implausible: %+v", st)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rec := &record{
		kind: "edge", alg: "be",
		n: 4, m: 3, delta: 2, palette: 9,
		colors: []int{3, 1, 2},
	}
	rec.stats.Rounds, rec.stats.Bytes, rec.stats.MaxMessageBytes = 5, 100, 9
	got, err := decodeRecord(rec.encode())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rec.response("k", "gnm(n=4,m=3,seed=1)"))
	b, _ := json.Marshal(got.response("k", "gnm(n=4,m=3,seed=1)"))
	if !bytes.Equal(a, b) {
		t.Fatalf("record round trip changed the response:\n%s\n%s", a, b)
	}
	if _, err := decodeRecord([]byte("garbage")); err == nil {
		t.Fatal("garbage record must not decode")
	}
}

// TestCompiledEngineByteIdentical: a service whose default engine is Compiled
// serves byte-identical response bodies to one running Lockstep, for every
// kind/alg pair — fresh runs on both sides (separate services, so the shared
// cache cannot mask a divergence).
func TestCompiledEngineByteIdentical(t *testing.T) {
	cfgC := testConfig()
	cfgC.Engine = dist.Compiled
	sc := New(cfgC)
	defer sc.Close()
	cfgL := testConfig()
	cfgL.Engine = dist.Lockstep
	sl := New(cfgL)
	defer sl.Close()

	if got := sc.Stats().Engine; got != "compiled" {
		t.Fatalf("stats engine = %q, want compiled", got)
	}
	cases := []Request{
		gnmReq("edge", "be", 3),
		gnmReq("edge", "pr", 3),
		gnmReq("edge", "greedy", 3),
		gnmReq("vertex", "be", 3),
		gnmReq("vertex", "greedy", 3),
		{Kind: "vertex", Alg: "be", Graph: exp.GraphSpec{Family: "path", N: 3}}, // edgeless: isolatedVertices
	}
	for _, req := range cases {
		rc, _, err := sc.Handle(req)
		if err != nil {
			t.Fatalf("%s/%s compiled: %v", req.Kind, req.Alg, err)
		}
		rl, _, err := sl.Handle(req)
		if err != nil {
			t.Fatalf("%s/%s lockstep: %v", req.Kind, req.Alg, err)
		}
		a, _ := json.Marshal(rc)
		b, _ := json.Marshal(rl)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s/%s: compiled body differs from lockstep:\n%s\n%s", req.Kind, req.Alg, a, b)
		}
	}

	// Per-request override onto the compiled engine parses and runs.
	req := gnmReq("edge", "greedy", 9)
	req.Engine = "compiled"
	if _, outcome, err := sl.Handle(req); err != nil || outcome != Miss {
		t.Fatalf("compiled override: outcome %q err %v", outcome, err)
	}
}

// TestSessionSnapshotRecordsEngine: dynamic sessions repair on the compiled
// engine and /statz says so.
func TestSessionSnapshotRecordsEngine(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	base := exp.GraphSpec{Family: "gnm", N: 20, M: 40, Seed: 2}
	if _, _, err := s.Mutate(MutateRequest{Session: "a", Base: &base}); err != nil {
		t.Fatal(err)
	}
	sessions := s.Stats().Sessions
	if len(sessions) != 1 {
		t.Fatalf("got %d sessions, want 1", len(sessions))
	}
	if sessions[0].Engine != "compiled" {
		t.Fatalf("session engine = %q, want compiled", sessions[0].Engine)
	}
}

// TestEdgelessBodies pins the /v1/color bodies of every servable edge
// algorithm on an edgeless graph, on the flat-pass engine and on the
// scheduler: the empty coloring with palette 0, spending no round.
func TestEdgelessBodies(t *testing.T) {
	keys := map[string]string{
		"be":        "bded5d8aefbbdaca06b54448e331a2bdd5d40f01b6db8a58c396d0757eb85ef5",
		"pr":        "3421518e2c7d14d7ae827bcf368b9789604a4c5bee80600602b857a272751eda",
		"greedy":    "01ab4dfde35e75adc9024c8860a4687e40431c506f82278f761558dfc1a5cf64",
		"fewcolors": "07cd91db0c30665f8742844ee790d4124cd3b78ae1f280edfed6eb2ae3f5df1e",
	}
	for _, e := range []dist.Engine{dist.Compiled, dist.Goroutines} {
		cfg := testConfig()
		cfg.Engine = e
		s := New(cfg)
		srv := httptest.NewServer(s.Handler())
		for _, alg := range []string{"be", "pr", "greedy", "fewcolors"} {
			req := `{"kind":"edge","alg":"` + alg + `","graph":{"family":"gnm","n":5,"m":0,"seed":1}}`
			resp, err := http.Post(srv.URL+"/v1/color", "application/json", strings.NewReader(req))
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			want := `{"key":"` + keys[alg] + `","kind":"edge","alg":"` + alg + `","graph":"gnm(n=5,m=0,seed=1)",` +
				`"n":5,"m":0,"delta":0,"palette":0,"numColors":0,"colors":[],` +
				`"stats":{"rounds":0,"bytes":0,"maxMessageBytes":0,"activations":0}}` + "\n"
			if resp.StatusCode != http.StatusOK || string(got) != want {
				t.Errorf("%v %s: status %d body\n%s\nwant\n%s", e, alg, resp.StatusCode, got, want)
			}
		}
		srv.Close()
		s.Close()
	}
}

// TestEdgelessVertexBodies pins the /v1/color bodies of the servable vertex
// algorithms on an edgeless graph, on the flat-pass engine and on the
// scheduler: every vertex takes color 1 of the palette Δ+1 = 1, spending no
// round.
func TestEdgelessVertexBodies(t *testing.T) {
	keys := map[string]string{
		"be":     "9ff8646466b03cba96b00a5dfd28bfe9bf64e62f32712529a8c428f8de47258e",
		"greedy": "dd174a687d0fb185f70ae3d190c697f444d6ce48821fdbd61bc52169a1794aa3",
	}
	for _, e := range []dist.Engine{dist.Compiled, dist.Goroutines} {
		cfg := testConfig()
		cfg.Engine = e
		s := New(cfg)
		srv := httptest.NewServer(s.Handler())
		for _, alg := range []string{"be", "greedy"} {
			req := `{"kind":"vertex","alg":"` + alg + `","graph":{"family":"gnm","n":5,"m":0,"seed":1}}`
			resp, err := http.Post(srv.URL+"/v1/color", "application/json", strings.NewReader(req))
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			want := `{"key":"` + keys[alg] + `","kind":"vertex","alg":"` + alg + `","graph":"gnm(n=5,m=0,seed=1)",` +
				`"n":5,"m":0,"delta":0,"palette":1,"numColors":1,"colors":[1,1,1,1,1],` +
				`"stats":{"rounds":0,"bytes":0,"maxMessageBytes":0,"activations":0}}` + "\n"
			if resp.StatusCode != http.StatusOK || string(got) != want {
				t.Errorf("%v %s: status %d body\n%s\nwant\n%s", e, alg, resp.StatusCode, got, want)
			}
		}
		srv.Close()
		s.Close()
	}
}
