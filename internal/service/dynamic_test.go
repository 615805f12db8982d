package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/exp"
	"repro/internal/graph"
)

func baseSpec() *exp.GraphSpec {
	return &exp.GraphSpec{Family: "gnm", N: 32, M: 70, Seed: 4}
}

// TestMutateMaintainsCanonical: a session driven through Service.Mutate
// serves the same coloring as the documented canonical recompute of the
// mutated graph.
func TestMutateMaintainsCanonical(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	stream := exp.MutationStream{Kind: "mix", Base: *baseSpec(), Ops: 60, Seed: 5}
	g, muts, err := stream.Generate()
	if err != nil {
		t.Fatal(err)
	}
	resp, outcome, err := s.Mutate(MutateRequest{Session: "t", Base: baseSpec(), Ops: muts, Colors: true})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != Miss {
		t.Fatalf("outcome = %v, want miss", outcome)
	}
	if resp.Applied != len(muts) || resp.Repair == nil || resp.Totals == nil {
		t.Fatalf("mutation response incomplete: %+v", resp)
	}
	if resp.Totals.Mutations != int64(len(muts)) {
		t.Fatalf("totals report %d mutations, want %d", resp.Totals.Mutations, len(muts))
	}

	// Rebuild the mutated graph independently and compare.
	want := g.Clone()
	{
		m, err := dynamic.New(g, dynamic.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.Apply(muts); err != nil {
			t.Fatal(err)
		}
		want = m.Graph()
		m.Close()
	}
	if resp.Fingerprint != want.EdgeSetFingerprint().String() {
		t.Fatal("served fingerprint differs from the mutated graph's")
	}
	if canonical := dynamic.CanonicalColors(want); !reflect.DeepEqual(resp.Colors, canonical) {
		t.Fatal("served coloring differs from canonical recompute")
	}
	if err := graph.CheckEdgeColoring(want, resp.Colors); err != nil {
		t.Fatal(err)
	}
}

// TestMutateCacheKeyedByFingerprint is the invalidation contract: coloring
// reads hit the cache until a mutation moves the fingerprint, and a
// mutation sequence that restores the edge set restores the key — the old
// entry serves again, byte-identically.
func TestMutateCacheKeyedByFingerprint(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	mk := func(ops []exp.Mutation, colors bool) (*MutateResponse, Outcome) {
		t.Helper()
		resp, oc, err := s.Mutate(MutateRequest{Session: "c", Base: baseSpec(), Ops: ops, Colors: colors})
		if err != nil {
			t.Fatal(err)
		}
		return resp, oc
	}
	r1, oc := mk(nil, true)
	if oc != Miss {
		t.Fatalf("first read outcome %v, want miss", oc)
	}
	r2, oc := mk(nil, true)
	if oc != Hit {
		t.Fatalf("repeat read outcome %v, want hit", oc)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("cache hit body differs from fresh body")
	}

	// Mutate: fingerprint moves, reads miss again.
	if _, oc = mk([]exp.Mutation{{Op: exp.OpInsert, U: 0, V: 31}}, false); oc != Miss {
		t.Fatalf("mutation outcome %v, want miss", oc)
	}
	r3, oc := mk(nil, true)
	if oc != Miss {
		t.Fatalf("read after mutation outcome %v, want miss (fingerprint moved)", oc)
	}
	if r3.Fingerprint == r1.Fingerprint {
		t.Fatal("fingerprint did not move under mutation")
	}

	// Undo: the edge set — hence the fingerprint, hence the key — returns,
	// and the original cache entry serves again.
	mk([]exp.Mutation{{Op: exp.OpDelete, U: 0, V: 31}}, false)
	r4, oc := mk(nil, true)
	if oc != Hit {
		t.Fatalf("read after undo outcome %v, want hit (fingerprint restored)", oc)
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Fatal("restored fingerprint served a different body")
	}
}

// TestMutateErrors pins the failure modes of the session API.
func TestMutateErrors(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	if _, _, err := s.Mutate(MutateRequest{Session: ""}); err == nil {
		t.Fatal("empty session name accepted")
	}
	if _, _, err := s.Mutate(MutateRequest{Session: "ghost"}); err == nil {
		t.Fatal("unknown session without base accepted")
	}
	bad := exp.GraphSpec{Family: "nope"}
	if _, _, err := s.Mutate(MutateRequest{Session: "bad", Base: &bad}); err == nil {
		t.Fatal("invalid base spec accepted")
	}
	// A failed creation must not burn the name.
	if _, _, err := s.Mutate(MutateRequest{Session: "bad", Base: baseSpec()}); err != nil {
		t.Fatalf("session name unusable after failed creation: %v", err)
	}
	if _, _, err := s.Mutate(MutateRequest{Session: "bad", Ops: []exp.Mutation{{Op: "upsert", U: 0, V: 1}}}); err == nil {
		t.Fatal("unknown op accepted")
	}
	// Partial failure: the first op lands (an op list is not a
	// transaction), the error says so, and /statz counts exactly it.
	before := s.Stats().Mutations
	_, _, err := s.Mutate(MutateRequest{Session: "bad", Ops: []exp.Mutation{
		{Op: exp.OpInsert, U: 0, V: 31},
		{Op: exp.OpInsert, U: 0, V: 31},
	}})
	if err == nil || !strings.Contains(err.Error(), "1 earlier op(s)") {
		t.Fatalf("partial failure error = %v, want applied-count notice", err)
	}
	if got := s.Stats().Mutations - before; got != 1 {
		t.Fatalf("mutation counter advanced by %d, want 1", got)
	}
	resp, _, err := s.Mutate(MutateRequest{Session: "bad", Colors: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Colors) != resp.M || resp.M != 71 {
		t.Fatalf("post-partial-failure read: %d colors for m=%d, want 71 (base 70 + the applied insert)", len(resp.Colors), resp.M)
	}
}

// TestSessionEviction: the coldest session is evicted when the table
// overflows, and recreating it starts from the base spec again.
func TestSessionEviction(t *testing.T) {
	s := New(Config{Workers: 2, Sessions: 2})
	defer s.Close()
	mustMutate := func(name string, ops ...exp.Mutation) *MutateResponse {
		t.Helper()
		resp, _, err := s.Mutate(MutateRequest{Session: name, Base: baseSpec(), Ops: ops})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	r1 := mustMutate("a", exp.Mutation{Op: exp.OpInsert, U: 0, V: 31})
	mustMutate("b")
	mustMutate("c") // evicts "a"
	if got := len(s.Stats().Sessions); got != 2 {
		t.Fatalf("%d live sessions, want 2", got)
	}
	// "a" was evicted: touching it without a base fails, with a base it
	// restarts from the spec (the insert is gone).
	if _, _, err := s.Mutate(MutateRequest{Session: "a"}); err == nil {
		t.Fatal("evicted session served without recreation")
	}
	r2 := mustMutate("a")
	if r2.M != r1.M-1 {
		t.Fatalf("recreated session has m=%d, want the base's %d", r2.M, r1.M-1)
	}
}

// TestMutateHTTP drives the session API through the real HTTP surface.
func TestMutateHTTP(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(body string) (*http.Response, *MutateResponse) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/mutate", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return resp, nil
		}
		var mr MutateResponse
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			t.Fatal(err)
		}
		return resp, &mr
	}
	hr, mr := post(`{"session":"h","base":{"family":"cycle","n":12},"ops":[{"op":"insert","u":0,"v":6}],"colors":true}`)
	if mr == nil {
		t.Fatalf("mutate failed with status %d", hr.StatusCode)
	}
	if mr.M != 13 || mr.Applied != 1 || len(mr.Colors) != 13 {
		t.Fatalf("unexpected response %+v", mr)
	}
	if hr.Header.Get("X-Colord-Fingerprint") != mr.Fingerprint {
		t.Fatal("fingerprint header disagrees with body")
	}
	if hr, _ := post(`{"session":"h","ops":[{"op":"insert","u":0,"v":6}]}`); hr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("duplicate insert returned %d, want 422", hr.StatusCode)
	}
	if hr, _ := post(`{"session":"h","nope":1}`); hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field returned %d, want 400", hr.StatusCode)
	}
}

// TestMutateConcurrent exercises the session table and per-session repair
// pipeline under the race detector: writers on distinct sessions, plus
// readers racing a writer on a shared session.
func TestMutateConcurrent(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	var wg sync.WaitGroup
	names := []string{"w0", "w1", "w2", "shared"}
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			stream := exp.MutationStream{Kind: "window", Base: *baseSpec(), Ops: 40, Seed: int64(i), Window: 8}
			_, muts, err := stream.Generate()
			if err != nil {
				t.Error(err)
				return
			}
			for _, mut := range muts {
				if _, _, err := s.Mutate(MutateRequest{Session: name, Base: baseSpec(), Ops: []exp.Mutation{mut}}); err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
			}
		}(i, name)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				resp, _, err := s.Mutate(MutateRequest{Session: "shared", Base: baseSpec(), Colors: true})
				if err != nil {
					t.Error(err)
					return
				}
				// Every read must be internally consistent: the coloring
				// matches the snapshot's own edge count.
				if len(resp.Colors) != resp.M {
					t.Errorf("read returned %d colors for m=%d", len(resp.Colors), resp.M)
					return
				}
			}
		}()
	}
	wg.Wait()
	// After the dust settles the shared session still serves the canonical
	// coloring of its final graph.
	resp, _, err := s.Mutate(MutateRequest{Session: "shared", Colors: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dynamic.New(graph.GNM(32, 70, 4), dynamic.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	stream := exp.MutationStream{Kind: "window", Base: *baseSpec(), Ops: 40, Seed: 3, Window: 8}
	_, muts, err := stream.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Apply(muts); err != nil {
		t.Fatal(err)
	}
	if want := dynamic.CanonicalColors(m.Graph()); !reflect.DeepEqual(resp.Colors, want) {
		t.Fatal("shared session diverged from canonical recompute")
	}
}

// TestMutateResponsesNotTorn: a mutate response reads its fingerprint, shape
// and colors as one snapshot, so a concurrent mutation of the same session
// cannot land between them. Four writers each toggle a distinct non-edge of
// one session, asking for the colors every time; every response's coloring
// must cover exactly its own edge count.
func TestMutateResponsesNotTorn(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	g, err := baseSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	var toggles [][2]int
	for u := 0; u < g.N() && len(toggles) < 4; u++ {
		if v := g.N() - 1 - u; u < v && !g.HasEdge(u, v) {
			toggles = append(toggles, [2]int{u, v})
		}
	}
	if len(toggles) < 4 {
		t.Fatalf("found %d non-edges to toggle, want 4", len(toggles))
	}
	if _, _, err := s.Mutate(MutateRequest{Session: "torn", Base: baseSpec()}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, e := range toggles {
		wg.Add(1)
		go func(u, v int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				op := exp.Mutation{Op: exp.OpInsert, U: u, V: v}
				if i%2 == 1 {
					op.Op = exp.OpDelete
				}
				resp, _, err := s.Mutate(MutateRequest{Session: "torn", Ops: []exp.Mutation{op}, Colors: true})
				if err != nil {
					t.Error(err)
					return
				}
				if len(resp.Colors) != resp.M {
					t.Errorf("torn response: %d colors for m=%d (fingerprint %s)", len(resp.Colors), resp.M, resp.Fingerprint)
					return
				}
			}
		}(e[0], e[1])
	}
	wg.Wait()
}
