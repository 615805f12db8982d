package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/edgecolor"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/panconesi"
)

// directResponse computes the reference answer for req the way the CLIs do:
// build the graph, one fresh single-threaded dist.Run on the default engine,
// merge, validate. It shares no execution machinery with the service (no
// registry, no cache, no single-flight), so agreement is evidence, not
// tautology.
func directResponse(t *testing.T, req Request) []byte {
	t.Helper()
	g, err := req.Graph.Build()
	if err != nil {
		t.Fatal(err)
	}
	delta := g.MaxDegree()
	opts := []dist.Option{dist.WithSeed(req.Seed), dist.WithEngine(dist.Lockstep)}
	var (
		colors  []int
		stats   dist.Stats
		palette int
	)
	switch req.Kind + "/" + req.Alg {
	case "edge/be":
		pl, err := core.AutoPlan(delta, 2, 2, 6, true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := edgecolor.LegalEdgeColoring(g, pl, edgecolor.Wide, opts...)
		if err != nil {
			t.Fatal(err)
		}
		colors, err = graph.MergePortColors(g, res.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		stats, palette = res.Stats, pl.TotalPalette()
	case "edge/pr":
		res, err := panconesi.EdgeColoring(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		colors, err = graph.MergePortColors(g, res.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		stats, palette = res.Stats, 2*delta-1
	case "edge/greedy":
		res, err := baseline.GreedyEdgeColoring(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		colors, err = graph.MergePortColors(g, res.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		stats, palette = res.Stats, 2*delta-1
	case "vertex/be":
		pl, err := core.AutoPlan(delta, 2, 2, 9, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.LegalColoring(g, pl, core.StartIDs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		colors, stats, palette = res.Outputs, res.Stats, pl.TotalPalette()
	case "vertex/greedy":
		res, err := baseline.GreedyVertexColoring(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		colors, stats, palette = res.Outputs, res.Stats, delta+1
	default:
		t.Fatalf("no direct reference for %s/%s", req.Kind, req.Alg)
	}
	resp := &Response{
		Key:   "",
		Kind:  req.Kind,
		Alg:   req.Alg,
		Graph: req.Graph.String(),
		N:     g.N(), M: g.M(), Delta: delta,
		Palette:   palette,
		NumColors: graph.CountColors(colors),
		Colors:    colors,
		Stats:     Stats{Rounds: stats.Rounds, Bytes: stats.Bytes, MaxMessageBytes: stats.MaxMessageBytes, Activations: stats.Activations},
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStatsDuringBuilds: statz snapshots taken while another goroutine
// builds graph entries and runs misses on them must not race with either
// (-race enforces).
func TestStatsDuringBuilds(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := 3; n < 40; n++ {
			req := Request{Kind: "vertex", Alg: "greedy", Graph: exp.GraphSpec{Family: "cycle", N: n}}
			if _, _, err := s.Handle(req); err != nil {
				t.Errorf("handle: %v", err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			if got := s.Stats(); got.Requests == 0 {
				t.Fatal("no requests recorded")
			}
			return
		default:
			_ = s.Stats()
		}
	}
}

// TestServiceMatchesDirect is the service-level concurrency test: many
// clients hammer one Service with a mixed workload (different kinds,
// algorithms, engines, seeds, graphs — plus deliberate duplicates to drive
// the coalescing and cache-hit paths), and every single response must be
// byte-identical to a fresh single-threaded dist.Run of the same request.
// Run under -race this also validates the locking of single-flight, the
// graph cache and the result cache.
func TestServiceMatchesDirect(t *testing.T) {
	reqs := []Request{
		{Kind: "edge", Alg: "be", Graph: exp.GraphSpec{Family: "gnm", N: 36, M: 100, Seed: 1}},
		{Kind: "edge", Alg: "be", Graph: exp.GraphSpec{Family: "linegraph", N: 14, M: 30, Seed: 2}},
		{Kind: "edge", Alg: "pr", Graph: exp.GraphSpec{Family: "gnm", N: 36, M: 100, Seed: 1}},
		{Kind: "edge", Alg: "pr", Graph: exp.GraphSpec{Family: "regular", N: 24, Deg: 4, Seed: 3}},
		{Kind: "edge", Alg: "greedy", Graph: exp.GraphSpec{Family: "tree", N: 30, Seed: 4}},
		{Kind: "edge", Alg: "greedy", Graph: exp.GraphSpec{Family: "cycle", N: 17}},
		{Kind: "vertex", Alg: "be", Graph: exp.GraphSpec{Family: "powercycle", N: 26, Deg: 3}},
		{Kind: "vertex", Alg: "be", Graph: exp.GraphSpec{Family: "linegraph", N: 12, M: 22, Seed: 5}},
		{Kind: "vertex", Alg: "greedy", Graph: exp.GraphSpec{Family: "gnm", N: 40, M: 90, Seed: 6}},
		{Kind: "vertex", Alg: "greedy", Graph: exp.GraphSpec{Family: "grid", N: 6, M: 5}},
	}
	// Seed and engine variants: same graphs, different cache keys (seeds)
	// or same keys via different engines (engine is excluded from the key).
	var workload []Request
	for _, r := range reqs {
		for _, seed := range []int64{0, 11} {
			for _, engine := range []string{"", "lockstep", "sharded"} {
				v := r
				v.Seed = seed
				v.Engine = engine
				workload = append(workload, v)
			}
		}
	}
	want := make(map[string][]byte) // canonical JSON per (request modulo engine)
	keyOf := func(r Request) string {
		r.Engine = ""
		b, _ := json.Marshal(r)
		return string(b)
	}
	for _, r := range workload {
		k := keyOf(r)
		if _, ok := want[k]; !ok {
			want[k] = directResponse(t, r)
		}
	}

	s := New(Config{Workers: 4, CacheEntries: 256, GraphEntries: 16})
	defer s.Close()

	// stripKey clears the response's Key field (the direct reference has no
	// cache key) without otherwise changing the body.
	stripKey := func(body []byte) ([]byte, error) {
		var resp Response
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		resp.Key = ""
		return json.Marshal(&resp)
	}

	const clients = 8
	const rounds = 3 // every client sends the full workload repeatedly: hits + coalesces
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i, r := range workload {
					// Stagger start points so clients collide on
					// different requests.
					r = workload[(i+cl*7)%len(workload)]
					var body []byte
					if (i+cl)%3 == 0 {
						// Exercise the raw wire path (fast lane + slow
						// lane) alongside the typed API.
						raw, err := json.Marshal(r)
						if err != nil {
							errCh <- err
							return
						}
						body, _, _, err = s.HandleRaw(raw)
						if err != nil {
							errCh <- err
							return
						}
					} else {
						resp, _, err := s.Handle(r)
						if err != nil {
							errCh <- err
							return
						}
						if body, err = json.Marshal(resp); err != nil {
							errCh <- err
							return
						}
					}
					got, err := stripKey(body)
					if err != nil {
						errCh <- err
						return
					}
					if !bytes.Equal(got, want[keyOf(r)]) {
						t.Errorf("client %d: response differs from direct dist.Run for %+v", cl, r)
						return
					}
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := s.Stats()
	total := int64(clients * rounds * len(workload))
	if st.Requests != total {
		t.Fatalf("requests %d, want %d", st.Requests, total)
	}
	if st.Runs != int64(len(want)) {
		t.Fatalf("runs %d, want exactly %d (one per distinct key)", st.Runs, len(want))
	}
	if st.Hits+st.Coalesced+st.Runs < total {
		t.Fatalf("outcome accounting leaks: %+v vs %d requests", st, total)
	}
}

// TestStatzUnderMixedLoad hammers /statz while color requests (typed and
// raw), session mutations, SSE subscriptions, and garbage bodies run
// concurrently. Every snapshot must be coherent: counters monotone across
// successive snapshots, outcomes never exceeding requests, and cache totals
// non-negative. Run under -race this also pins the striped-counter,
// sharded-snapshot, and broadcast-hub synchronization.
func TestStatzUnderMixedLoad(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Subscribers churn against the session the first mutator client owns:
	// open a stream, read a handful of events, drop the connection, repeat.
	// The request context ends the stream when the test stops, so a blocked
	// read never outlives the load.
	ctx, cancelSubs := context.WithCancel(context.Background())
	defer cancelSubs()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/v1/subscribe?session=statz-a", nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					return // context canceled at stop
				}
				if resp.StatusCode == http.StatusOK {
					// Read a few frames, then vanish mid-stream: the
					// disconnect-reap path under load.
					buf := make([]byte, 512)
					for reads := 0; reads < 4; reads++ {
						if _, err := resp.Body.Read(buf); err != nil {
							break
						}
					}
				}
				resp.Body.Close()
			}
		}()
	}
	// One client sprays unparseable bodies at both POST endpoints: the
	// badRequests counter must move without ever touching requests/outcomes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			path := "/v1/color"
			if i%2 == 0 {
				path = "/v1/mutate"
			}
			resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader([]byte("{garbage")))
			if err != nil {
				t.Errorf("spray: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("spray: status %d, want 400", resp.StatusCode)
				return
			}
		}
	}()
	for cl := 0; cl < 4; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			// Each client owns one session on a cycle base: the chord
			// (cl, cl+5) is never a cycle edge, so alternating insert and
			// delete of it is always a valid op sequence.
			base := exp.GraphSpec{Family: "cycle", N: 24}
			present := false
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch (i + cl) % 3 {
				case 0:
					req := Request{Kind: "edge", Alg: "greedy", Graph: exp.GraphSpec{Family: "cycle", N: 10 + (i % 8)}}
					if _, _, err := s.Handle(req); err != nil {
						t.Errorf("handle: %v", err)
						return
					}
				case 1:
					raw, _ := json.Marshal(Request{Kind: "vertex", Alg: "greedy", Graph: exp.GraphSpec{Family: "tree", N: 12 + (i % 4), Seed: 3}})
					if _, _, _, err := s.HandleRaw(raw); err != nil {
						t.Errorf("handleRaw: %v", err)
						return
					}
				case 2:
					name := "statz-" + string(rune('a'+cl))
					op := exp.Mutation{Op: exp.OpInsert, U: cl, V: cl + 5}
					if present {
						op.Op = exp.OpDelete
					}
					present = !present
					if _, _, err := s.Mutate(MutateRequest{Session: name, Base: &base, Ops: []exp.Mutation{op}, Colors: i%2 == 0}); err != nil {
						t.Errorf("mutate: %v", err)
						return
					}
				}
			}
		}(cl)
	}

	var prev ServiceStats
	deadline := time.After(800 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
		}
		resp, err := http.Get(srv.URL + "/statz")
		if err != nil {
			t.Fatal(err)
		}
		var st ServiceStats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Requests < prev.Requests || st.Hits < prev.Hits || st.Coalesced < prev.Coalesced ||
			st.Runs < prev.Runs || st.Errors < prev.Errors || st.Mutations < prev.Mutations {
			t.Fatalf("counters went backwards: %+v then %+v", prev, st)
		}
		if st.BadRequests < prev.BadRequests || st.Subscribes < prev.Subscribes ||
			st.Delivered < prev.Delivered || st.Dropped < prev.Dropped {
			t.Fatalf("stream counters went backwards: %+v then %+v", prev, st)
		}
		if st.Subscribers < 0 {
			t.Fatalf("negative subscriber gauge: %+v", st)
		}
		if st.Hits+st.Coalesced+st.Runs > st.Requests {
			t.Fatalf("outcomes exceed requests: %+v", st)
		}
		if st.Cache.Bytes < 0 || st.Fast.Bytes < 0 || st.Cache.Entries < 0 || st.Fast.Entries < 0 {
			t.Fatalf("negative cache totals: %+v", st)
		}
		prev = st
	}
	close(stop)
	cancelSubs()
	wg.Wait()
	if prev.Requests == 0 || prev.Mutations == 0 {
		t.Fatalf("workload did not register: %+v", prev)
	}
	final := s.Stats()
	if final.BadRequests == 0 {
		t.Fatalf("garbage sprayer did not register: %+v", final)
	}
	if final.Subscribes == 0 {
		t.Fatalf("subscriber churn did not register: %+v", final)
	}
}
