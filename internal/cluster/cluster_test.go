package cluster_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/service"
)

// testCluster is n colord nodes behind one gateway, all in-process — the
// integration harness for the routed plane. Every node is a full service
// (own caches, own sessions, own hub) wired with a RemoteFill against its
// peers; the gateway fronts them exactly as colorgate would.
type testCluster struct {
	gw       *cluster.Gateway
	gwSrv    *httptest.Server
	nodes    []*service.Service
	backends []*httptest.Server
	peers    []string
}

func startCluster(t *testing.T, n int, cfg service.Config) *testCluster {
	t.Helper()
	tc := &testCluster{}
	// RemoteFill must exist at service construction, but the filler needs
	// every peer URL — late-bind through an atomic slot.
	slots := make([]atomic.Pointer[cluster.Filler], n)
	for i := 0; i < n; i++ {
		slot := &slots[i]
		c := cfg
		c.RemoteFill = func(graphName, key string) []byte {
			if f := slot.Load(); f != nil {
				return f.Fill(graphName, key)
			}
			return nil
		}
		svc := service.New(c)
		srv := httptest.NewServer(svc.Handler())
		tc.nodes = append(tc.nodes, svc)
		tc.backends = append(tc.backends, srv)
		tc.peers = append(tc.peers, srv.URL)
	}
	for i := range slots {
		slots[i].Store(cluster.NewFiller(tc.peers, tc.peers[i], nil, time.Second))
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Peers: tc.peers, HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tc.gw = gw
	tc.gwSrv = httptest.NewServer(gw.Handler())
	t.Cleanup(tc.close)
	return tc
}

func (tc *testCluster) close() {
	tc.gwSrv.Close()
	tc.gw.Close()
	for i, srv := range tc.backends {
		srv.Close()
		tc.nodes[i].Close()
	}
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func colorBody(n, seed int) []byte {
	return []byte(fmt.Sprintf(`{"kind":"edge","alg":"be","graph":{"family":"gnm","n":%d,"m":%d,"seed":%d}}`, n, 3*n, seed))
}

// readSSEFrame parses one SSE frame (id/event/data lines to a blank line).
func readSSEFrame(r *bufio.Reader) (id int64, event string, data []byte, err error) {
	id = -1
	seen := false
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return id, event, data, err
		}
		line = strings.TrimRight(line, "\n")
		if line == "" {
			if seen {
				return id, event, data, nil
			}
			continue
		}
		seen = true
		switch {
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &id)
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = []byte(line[len("data: "):])
		}
	}
}

// TestClusterByteIdenticalToSingleNode is the clustering correctness
// contract: mixed color/mutate/subscribe traffic driven concurrently through
// the gateway produces exactly the bytes a single node would serve — the
// cluster is a cache-locality optimization, never a semantic one.
func TestClusterByteIdenticalToSingleNode(t *testing.T) {
	cfg := service.Config{Workers: 2}
	tc := startCluster(t, 3, cfg)
	oracle := service.New(cfg)
	defer oracle.Close()

	const graphs = 6
	const sessions = 3
	const opsPerSession = 25

	type sessRec struct {
		fingerprints []string
		bodies       [][]byte
	}
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		colorGot   = map[int][]byte{}
		sessGot    = map[string]*sessRec{}
		subSeqs    = map[string][]int64{}
		subPrints  = map[string][]string{}
		subHellos  = map[string]int64{}
		streamErrs = map[string]error{}
	)

	// Color plane: each graph hammered from its own goroutine; repeats must
	// hit the owner's cache, every body identical.
	for gi := 0; gi < graphs; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			body := colorBody(30+gi, gi)
			var first []byte
			for rep := 0; rep < 8; rep++ {
				resp, data := postJSON(t, tc.gwSrv.URL+"/v1/color", body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("graph %d: status %d: %s", gi, resp.StatusCode, data)
					return
				}
				if first == nil {
					first = data
				} else if !bytes.Equal(first, data) {
					t.Errorf("graph %d: repeat %d served different bytes", gi, rep)
					return
				}
			}
			mu.Lock()
			colorGot[gi] = first
			mu.Unlock()
		}(gi)
	}

	// Session plane: each session created, subscribed to (through the
	// gateway), and mutated op by op — the subscriber and the mutator race.
	for si := 0; si < sessions; si++ {
		name := fmt.Sprintf("sess-%d", si)
		base := exp.GraphSpec{Family: "gnm", N: 24, M: 50, Seed: int64(si)}
		stream := exp.MutationStream{Kind: "mix", Base: base, Ops: opsPerSession, Seed: int64(40 + si)}
		_, muts, err := stream.Generate()
		if err != nil {
			t.Fatal(err)
		}
		createBody, _ := json.Marshal(service.MutateRequest{Session: name, Base: &base})
		if resp, data := postJSON(t, tc.gwSrv.URL+"/v1/mutate", createBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("create %s: %d: %s", name, resp.StatusCode, data)
		}

		// Subscriber through the gateway, racing the mutator below.
		req, _ := http.NewRequest("GET", tc.gwSrv.URL+"/v1/subscribe?session="+name, nil)
		sresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer sresp.Body.Close()
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("subscribe %s via gateway: %d", name, sresp.StatusCode)
		}
		rd := bufio.NewReader(sresp.Body)
		_, ev, data, err := readSSEFrame(rd)
		if err != nil || ev != "hello" {
			t.Fatalf("subscribe %s: first frame %q err %v", name, ev, err)
		}
		var hello struct {
			Seq int64 `json:"seq"`
		}
		json.Unmarshal(data, &hello)
		subHellos[name] = hello.Seq
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			var seqs []int64
			var prints []string
			for len(seqs) < opsPerSession {
				id, ev, data, err := readSSEFrame(rd)
				if err != nil {
					mu.Lock()
					streamErrs[name] = err
					mu.Unlock()
					return
				}
				if ev != "delta" {
					continue
				}
				var d struct {
					Seq         int64  `json:"seq"`
					Fingerprint string `json:"fingerprint"`
				}
				json.Unmarshal(data, &d)
				if id != d.Seq {
					mu.Lock()
					streamErrs[name] = fmt.Errorf("SSE id %d != seq %d", id, d.Seq)
					mu.Unlock()
					return
				}
				seqs = append(seqs, d.Seq)
				prints = append(prints, d.Fingerprint)
			}
			mu.Lock()
			subSeqs[name] = seqs
			subPrints[name] = prints
			mu.Unlock()
		}(name)

		wg.Add(1)
		go func(name string, muts []exp.Mutation) {
			defer wg.Done()
			rec := &sessRec{}
			for _, op := range muts {
				body, _ := json.Marshal(service.MutateRequest{Session: name, Ops: []exp.Mutation{op}})
				resp, data := postJSON(t, tc.gwSrv.URL+"/v1/mutate", body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("mutate %s: %d: %s", name, resp.StatusCode, data)
					return
				}
				var mr service.MutateResponse
				if err := json.Unmarshal(data, &mr); err != nil {
					t.Errorf("mutate %s: %v", name, err)
					return
				}
				rec.fingerprints = append(rec.fingerprints, mr.Fingerprint)
				rec.bodies = append(rec.bodies, data)
			}
			mu.Lock()
			sessGot[name] = rec
			mu.Unlock()
		}(name, muts)
	}
	wg.Wait()
	for name, err := range streamErrs {
		t.Fatalf("stream %s: %v", name, err)
	}

	// Oracle comparison: the single node answers every request with the
	// same bytes the cluster served.
	for gi := 0; gi < graphs; gi++ {
		want, _, _, err := oracle.HandleRaw(colorBody(30+gi, gi))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(colorGot[gi], want) {
			t.Fatalf("graph %d: cluster body differs from single-node oracle", gi)
		}
	}
	for si := 0; si < sessions; si++ {
		name := fmt.Sprintf("sess-%d", si)
		base := exp.GraphSpec{Family: "gnm", N: 24, M: 50, Seed: int64(si)}
		stream := exp.MutationStream{Kind: "mix", Base: base, Ops: opsPerSession, Seed: int64(40 + si)}
		_, muts, err := stream.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := oracle.Mutate(service.MutateRequest{Session: name, Base: &base}); err != nil {
			t.Fatal(err)
		}
		got := sessGot[name]
		if got == nil {
			t.Fatalf("session %s: no recorded responses", name)
		}
		for i, op := range muts {
			want, _, err := oracle.Mutate(service.MutateRequest{Session: name, Ops: []exp.Mutation{op}})
			if err != nil {
				t.Fatal(err)
			}
			if got.fingerprints[i] != want.Fingerprint {
				t.Fatalf("session %s op %d: fingerprint diverged from oracle", name, i)
			}
		}
		// The subscriber saw every commit, in order, gapless from hello, with
		// the fingerprints the mutator was told.
		seqs, prints := subSeqs[name], subPrints[name]
		if len(seqs) != opsPerSession {
			t.Fatalf("session %s: subscriber saw %d deltas, want %d", name, len(seqs), opsPerSession)
		}
		for i, seq := range seqs {
			if want := subHellos[name] + int64(i) + 1; seq != want {
				t.Fatalf("session %s delta %d: seq %d, want %d", name, i, seq, want)
			}
			if prints[i] != got.fingerprints[i] {
				t.Fatalf("session %s delta %d: fingerprint differs from mutate response", name, i)
			}
		}
	}

	// Routing stuck: session reads without a base spec only work on the
	// owner, so a plain read through the gateway proves stickiness.
	for si := 0; si < sessions; si++ {
		name := fmt.Sprintf("sess-%d", si)
		body, _ := json.Marshal(service.MutateRequest{Session: name, Colors: true})
		resp, data := postJSON(t, tc.gwSrv.URL+"/v1/mutate", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("baseless read of %s via gateway: %d: %s (routing not sticky?)", name, resp.StatusCode, data)
		}
	}

	st := tc.gw.Stats()
	if st.ColorForwards == 0 || st.MutateForwards == 0 || st.SubscribeForwards == 0 {
		t.Fatalf("gateway forwarded nothing? %+v", st)
	}
	if st.HealthyPeers != 3 {
		t.Fatalf("healthy peers %d, want 3", st.HealthyPeers)
	}
}

// TestClusterRemoteFill: a node that misses locally on a key another node
// owns fills from the owner's cache instead of recomputing — runs stay at
// one cluster-wide however the request is (mis)routed.
func TestClusterRemoteFill(t *testing.T) {
	cfg := service.Config{Workers: 2}
	tc := startCluster(t, 3, cfg)

	body := colorBody(40, 99)
	var probe struct {
		Graph exp.GraphSpec `json:"graph"`
	}
	json.Unmarshal(body, &probe)
	ring := cluster.NewRing(tc.peers)
	owner := ring.Owner(cluster.ColorKey(probe.Graph.String()))
	ownerIdx, otherIdx := -1, -1
	for i, p := range tc.peers {
		if p == owner {
			ownerIdx = i
		} else if otherIdx < 0 {
			otherIdx = i
		}
	}

	// Prime the owner through the gateway (that is where routing lands it).
	resp, want := postJSON(t, tc.gwSrv.URL+"/v1/color", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: %d: %s", resp.StatusCode, want)
	}
	if got := resp.Header.Get("X-Colord-Peer"); got != owner {
		t.Fatalf("gateway routed to %s, ring says owner is %s", got, owner)
	}

	// Hit a non-owner directly: it must fill from the owner, not recompute.
	resp2, got := postJSON(t, tc.peers[otherIdx]+"/v1/color", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("misrouted request: %d: %s", resp2.StatusCode, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("filled response differs from the owner's bytes")
	}
	other := tc.nodes[otherIdx].Stats()
	if other.Filled != 1 {
		t.Fatalf("non-owner filled %d, want 1", other.Filled)
	}
	if other.Runs != 0 {
		t.Fatalf("non-owner ran %d computations, want 0 (should have filled from peer)", other.Runs)
	}
	if ownerStats := tc.nodes[ownerIdx].Stats(); ownerStats.Runs != 1 {
		t.Fatalf("owner ran %d computations, want exactly 1 cluster-wide", ownerStats.Runs)
	}
}

// TestClusterPeerDeathMidRun: killing a node mid-traffic leaves the read
// plane fully available — requests retry down the rank order to the next
// peer, bytes unchanged, and the gateway's statz shows the death.
func TestClusterPeerDeathMidRun(t *testing.T) {
	cfg := service.Config{Workers: 2}
	tc := startCluster(t, 3, cfg)
	oracle := service.New(cfg)
	defer oracle.Close()

	// Find a graph owned by node 0 so its death forces a failover.
	ring := cluster.NewRing(tc.peers)
	seed := 0
	for ; seed < 1000; seed++ {
		var probe struct {
			Graph exp.GraphSpec `json:"graph"`
		}
		json.Unmarshal(colorBody(28, seed), &probe)
		if ring.Owner(cluster.ColorKey(probe.Graph.String())) == tc.peers[0] {
			break
		}
	}
	body := colorBody(28, seed)

	resp, before := postJSON(t, tc.gwSrv.URL+"/v1/color", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-death: %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Colord-Peer") != tc.peers[0] {
		t.Fatalf("expected node 0 to own the test graph, got %s", resp.Header.Get("X-Colord-Peer"))
	}

	// Kill the owner mid-run.
	tc.backends[0].Close()

	resp2, after := postJSON(t, tc.gwSrv.URL+"/v1/color", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-death: %d: %s", resp2.StatusCode, after)
	}
	if peer := resp2.Header.Get("X-Colord-Peer"); peer == tc.peers[0] {
		t.Fatal("request claims to have been served by the dead peer")
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failover served different bytes — determinism broken across nodes")
	}
	want, _, _, err := oracle.HandleRaw(body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, want) {
		t.Fatal("failover bytes differ from single-node oracle")
	}

	st := tc.gw.Stats()
	if st.Retries == 0 {
		t.Fatalf("no retries recorded across a peer death: %+v", st)
	}
	// The prober (50ms cadence) confirms the death shortly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st = tc.gw.Stats()
		if st.HealthyPeers == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never marked the dead peer down: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, p := range st.Peers {
		if p.URL == tc.peers[0] && p.Healthy {
			t.Fatal("dead peer still marked healthy")
		}
	}
}

// TestGatewayForwardsQuery: the gateway forwards the query string on both
// routes, so ?detail=1 through a 2-node gateway answers with the status and
// body the owning node gives the same request sent to it directly — the
// detail envelope included.
func TestGatewayForwardsQuery(t *testing.T) {
	tc := startCluster(t, 2, service.Config{Workers: 2})
	for _, c := range []struct{ path, setup, body string }{
		{"/v1/color", "", string(colorBody(40, 3))},
		{"/v1/mutate", `{"session":"q","base":{"family":"gnm","n":24,"m":50,"seed":1}}`, `{"session":"q"}`},
	} {
		if c.setup != "" {
			if resp, data := postJSON(t, tc.gwSrv.URL+c.path, []byte(c.setup)); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s setup: %d: %s", c.path, resp.StatusCode, data)
			}
		}
		resp, got := postJSON(t, tc.gwSrv.URL+c.path+"?detail=1", []byte(c.body))
		owner := resp.Header.Get("X-Colord-Peer")
		direct, want := postJSON(t, owner+c.path+"?detail=1", []byte(c.body))
		if resp.StatusCode != direct.StatusCode || !bytes.Equal(got, want) {
			t.Fatalf("%s?detail=1: gateway %d %s, owner %s %d %s", c.path, resp.StatusCode, got, owner, direct.StatusCode, want)
		}
		if resp.StatusCode != http.StatusOK || !bytes.Contains(got, []byte(`"paletteBound"`)) {
			t.Fatalf("%s?detail=1: %d %s, want the detail envelope", c.path, resp.StatusCode, got)
		}
	}
}

// TestGatewaySubscribeEscapedNames: session names that need escaping in a
// query string subscribe through the gateway exactly as they were created.
// The gateway forwards the client's query as sent, so the owner decodes the
// same name and answers with that session's hello.
func TestGatewaySubscribeEscapedNames(t *testing.T) {
	tc := startCluster(t, 2, service.Config{Workers: 2})
	base := exp.GraphSpec{Family: "gnm", N: 24, M: 50, Seed: 1}
	for _, name := range []string{"a&b", "x y", "p%q"} {
		createBody, _ := json.Marshal(service.MutateRequest{Session: name, Base: &base})
		if resp, data := postJSON(t, tc.gwSrv.URL+"/v1/mutate", createBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("create %q: %d: %s", name, resp.StatusCode, data)
		}
		resp, err := http.Get(tc.gwSrv.URL + "/v1/subscribe?session=" + url.QueryEscape(name))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("subscribe %q via gateway: %d: %s", name, resp.StatusCode, data)
		}
		_, ev, data, err := readSSEFrame(bufio.NewReader(resp.Body))
		resp.Body.Close()
		if err != nil || ev != "hello" {
			t.Fatalf("subscribe %q: first frame %q err %v", name, ev, err)
		}
		var hello service.HelloEvent
		if err := json.Unmarshal(data, &hello); err != nil || hello.Session != name {
			t.Fatalf("subscribe %q: hello %s (err %v) names another session", name, data, err)
		}
	}
}
