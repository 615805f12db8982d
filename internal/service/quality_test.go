package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/algreg"
	"repro/internal/exp"
	"repro/internal/graph"
)

// TestQualityKnob: quality=fewcolors with no alg resolves to the fewcolors
// tier, serves byte-identically across all four engines, and measurably uses
// fewer colors than the fast tier on the same graph.
func TestQualityKnob(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	spec := exp.GraphSpec{Family: "gnm", N: 60, M: 240, Seed: 1}
	g := mustBuild(t, spec)

	few, outcome, err := s.Handle(Request{Kind: "edge", Quality: "fewcolors", Graph: spec})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Miss {
		t.Fatalf("first fewcolors request outcome %q", outcome)
	}
	if few.Alg != "fewcolors" {
		t.Fatalf("resolved alg %q, want fewcolors", few.Alg)
	}
	if err := graph.CheckEdgeColoring(g, few.Colors); err != nil {
		t.Fatalf("illegal fewcolors coloring: %v", err)
	}
	if few.NumColors > few.Palette {
		t.Fatalf("used %d colors, bound %d", few.NumColors, few.Palette)
	}

	// Same tier, explicit name: must be the same cache entry.
	if _, outcome, err = s.Handle(Request{Kind: "edge", Alg: "fewcolors", Graph: spec}); err != nil || outcome != Hit {
		t.Fatalf("named fewcolors request: outcome %q err %v, want hit", outcome, err)
	}

	// All four engines serve byte-identical bodies (fresh service each, so
	// the shared cache cannot mask a divergence).
	want, _ := json.Marshal(few)
	for _, engine := range []string{"goroutines", "lockstep", "sharded", "compiled"} {
		se := New(testConfig())
		resp, _, err := se.Handle(Request{Kind: "edge", Quality: "fewcolors", Graph: spec, Engine: engine})
		se.Close()
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		got, _ := json.Marshal(resp)
		if !bytes.Equal(want, got) {
			t.Fatalf("%s body differs:\n%s\n%s", engine, want, got)
		}
	}

	// The tier earns its name against the fast tier's palette.
	fast, _, err := s.Handle(Request{Kind: "edge", Alg: "pr", Graph: spec})
	if err != nil {
		t.Fatal(err)
	}
	if few.NumColors >= fast.Palette {
		t.Fatalf("fewcolors used %d colors, fast palette is %d", few.NumColors, fast.Palette)
	}

	// quality=fast defaults and mismatches.
	r, _, err := s.Handle(Request{Kind: "edge", Quality: "fast", Graph: spec})
	if err != nil || r.Alg != "be" {
		t.Fatalf("quality=fast resolved to %q, err %v", r.Alg, err)
	}
	for _, bad := range []Request{
		{Kind: "edge", Quality: "best", Graph: spec},
		{Kind: "edge", Alg: "be", Quality: "fewcolors", Graph: spec},
		{Kind: "vertex", Quality: "fewcolors", Graph: spec},
	} {
		if _, _, err := s.Handle(bad); err == nil {
			t.Fatalf("%+v: want error", bad)
		}
	}
}

// TestServedPalettes pins the served palette of 16 fixed requests exactly:
// the five fast-tier algorithms on small graphs, the same on larger and
// denser ones, and the fewcolors tier against the fast tier on one graph.
// Palettes are deterministic, so any change is an algorithm change, not
// noise.
func TestServedPalettes(t *testing.T) {
	tmpl := func(kind, alg string, spec exp.GraphSpec) Request {
		return Request{Kind: kind, Alg: alg, Graph: spec}
	}
	q := func(spec exp.GraphSpec) Request {
		return Request{Kind: "edge", Quality: "fewcolors", Graph: spec}
	}
	for _, tc := range []struct {
		name     string
		reqs     []Request
		palettes []int
	}{
		{"small", []Request{
			tmpl("edge", "be", exp.GraphSpec{Family: "gnm", N: 64, M: 192, Seed: 1}),
			tmpl("edge", "pr", exp.GraphSpec{Family: "regular", N: 48, Deg: 4, Seed: 2}),
			tmpl("edge", "greedy", exp.GraphSpec{Family: "tree", N: 64, Seed: 3}),
			tmpl("vertex", "be", exp.GraphSpec{Family: "powercycle", N: 40, Deg: 3}),
			tmpl("vertex", "greedy", exp.GraphSpec{Family: "cycle", N: 64}),
		}, []int{13, 6, 8, 7, 2}},
		{"medium", []Request{
			tmpl("edge", "be", exp.GraphSpec{Family: "gnm", N: 256, M: 1024, Seed: 1}),
			tmpl("edge", "be", exp.GraphSpec{Family: "linegraph", N: 32, M: 120, Seed: 2}),
			tmpl("edge", "pr", exp.GraphSpec{Family: "regular", N: 128, Deg: 8, Seed: 3}),
			tmpl("edge", "greedy", exp.GraphSpec{Family: "gnm", N: 128, M: 384, Seed: 4}),
			tmpl("vertex", "be", exp.GraphSpec{Family: "powercycle", N: 120, Deg: 4}),
			tmpl("vertex", "be", exp.GraphSpec{Family: "linegraph", N: 24, M: 70, Seed: 5}),
			tmpl("vertex", "greedy", exp.GraphSpec{Family: "geometric", N: 160, Seed: 6}),
		}, []int{18, 22, 12, 12, 9, 17, 6}},
		{"fewcolors", []Request{
			q(exp.GraphSpec{Family: "gnm", N: 64, M: 192, Seed: 1}),
			q(exp.GraphSpec{Family: "regular", N: 48, Deg: 4, Seed: 2}),
			q(exp.GraphSpec{Family: "geometric", N: 96, Seed: 3}),
			tmpl("edge", "pr", exp.GraphSpec{Family: "gnm", N: 64, M: 192, Seed: 1}),
		}, []int{13, 6, 5, 13}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(testConfig())
			defer s.Close()
			got := make([]int, len(tc.reqs))
			for i, req := range tc.reqs {
				resp, _, err := s.Handle(req)
				if err != nil {
					t.Fatalf("%+v: %v", req, err)
				}
				got[i] = resp.NumColors
			}
			if !slices.Equal(got, tc.palettes) {
				t.Errorf("palettes %v, want %v", got, tc.palettes)
			}
		})
	}
}

// TestStatzPerAlg: /statz carries one row per servable algorithm, counting
// requests (hits included) and gauging the last measured palette figures.
func TestStatzPerAlg(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	spec := exp.GraphSpec{Family: "gnm", N: 40, M: 120, Seed: 1}
	for i := 0; i < 3; i++ { // miss, hit, hit — all count as requests
		if _, _, err := s.Handle(Request{Kind: "edge", Alg: "fewcolors", Graph: spec}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Handle(Request{Kind: "vertex", Alg: "greedy", Graph: spec}); err != nil {
		t.Fatal(err)
	}

	rows := make(map[[2]string]AlgStats)
	algs := s.Stats().Algs
	if len(algs) != len(algreg.Servable()) {
		t.Fatalf("%d alg rows, want %d", len(algs), len(algreg.Servable()))
	}
	for _, a := range algs {
		rows[[2]string{a.Kind, a.Alg}] = a
	}
	few := rows[[2]string{"edge", "fewcolors"}]
	if few.Requests != 3 {
		t.Fatalf("fewcolors requests %d, want 3", few.Requests)
	}
	if few.Quality != "fewcolors" {
		t.Fatalf("fewcolors row quality %q", few.Quality)
	}
	if few.ColorsUsed <= 0 || few.PaletteBound <= 0 || few.ColorsUsed > few.PaletteBound {
		t.Fatalf("fewcolors gauges implausible: %+v", few)
	}
	if vg := rows[[2]string{"vertex", "greedy"}]; vg.Requests != 1 || vg.ColorsUsed <= 0 {
		t.Fatalf("vertex/greedy row implausible: %+v", vg)
	}
	if be := rows[[2]string{"edge", "be"}]; be.Requests != 0 || be.ColorsUsed != 0 {
		t.Fatalf("untouched alg row must be zero: %+v", be)
	}
}

// TestDetailEnvelope: ?detail=1 returns the DetailResponse envelope; the
// default body stays byte-identical to a query-free request.
func TestDetailEnvelope(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(Request{Kind: "edge", Quality: "fewcolors", Graph: exp.GraphSpec{Family: "gnm", N: 40, M: 120, Seed: 1}})
	plain := postJSON(t, srv.URL+"/v1/color", body)
	var std Response
	if err := json.Unmarshal(plain, &std); err != nil {
		t.Fatal(err)
	}

	detail := postJSON(t, srv.URL+"/v1/color?detail=1", body)
	var d DetailResponse
	dec := json.NewDecoder(bytes.NewReader(detail))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("detail body does not match the DetailResponse contract: %v\n%s", err, detail)
	}
	if d.Alg != "fewcolors" || d.Quality != "fewcolors" {
		t.Fatalf("detail identity: alg %q quality %q", d.Alg, d.Quality)
	}
	if d.ColorsUsed != std.NumColors || d.PaletteBound != std.Palette || d.Key != std.Key {
		t.Fatalf("detail disagrees with the standard body: %+v vs %+v", d, std)
	}
	if d.Rounds != std.Stats.Rounds || len(d.Colors) != len(std.Colors) {
		t.Fatalf("detail run figures disagree: %+v", d)
	}

	// The plain body is unaffected by the detail lane existing: a repeat
	// query-free request still serves the exact same bytes (fast path).
	if again := postJSON(t, srv.URL+"/v1/color", body); !bytes.Equal(again, plain) {
		t.Fatalf("plain body changed after a detail request:\n%s\n%s", again, plain)
	}
}

// TestMutateDetail: the mutate analog of ?detail=1 — repair identity, tier,
// first-fit bound, and measured colors; absent without the flag.
func TestMutateDetail(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	base := exp.GraphSpec{Family: "gnm", N: 30, M: 60, Seed: 2}
	body, _ := json.Marshal(MutateRequest{Session: "q", Base: &base, Colors: true})
	plain := postJSON(t, srv.URL+"/v1/mutate", body)
	if bytes.Contains(plain, []byte("paletteBound")) {
		t.Fatalf("default mutate body leaks detail fields: %s", plain)
	}
	detail := postJSON(t, srv.URL+"/v1/mutate?detail=1", body)
	var d MutateResponse
	if err := json.Unmarshal(detail, &d); err != nil {
		t.Fatal(err)
	}
	if d.Alg != "repair" || d.Quality != "fast" {
		t.Fatalf("mutate detail identity: alg %q quality %q", d.Alg, d.Quality)
	}
	if d.PaletteBound != 2*d.Delta-1 {
		t.Fatalf("repair bound %d for Δ=%d", d.PaletteBound, d.Delta)
	}
	if d.ColorsUsed <= 0 || d.ColorsUsed > d.PaletteBound || d.ColorsUsed != d.NumColors {
		t.Fatalf("mutate detail colors implausible: %+v", d)
	}
}

func postJSON(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, b)
	}
	return b
}
