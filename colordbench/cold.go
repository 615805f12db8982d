package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/service"
)

// coldStream generates cold-read's never-repeating requests. Client c owns
// the algorithm seeds ≡ c (mod 2), so the two clients never ask for the same
// key and never coalesce. Template cycles alternate: an even cycle takes
// fresh graph seeds (a new graph: build, fingerprint, fresh runner pool), the
// odd cycle after it reuses those graphs (pooled runners).
type coldStream struct{ algBase, graphBase int64 }

func newColdStream(seed int64) coldStream {
	a, g := inputSeeds(seed, 2)
	return coldStream{algBase: a, graphBase: g}
}

func (s coldStream) request(c, i int) service.Request {
	r := coldMix[i%len(coldMix)]
	r.Seed = s.algBase + 2*int64(i) + int64(c)
	if seededFamily(r.Graph.Family) {
		r.Graph.Seed = s.graphBase + 2*int64(i/len(coldMix)/2) + int64(c)
	}
	return r
}

// prefillRequest is the j-th of the keys that fill the caches before
// cold-read's clock starts: cheap compiled greedy runs, with negative seeds
// no timed request uses.
func prefillRequest(j int) service.Request {
	return service.Request{Kind: "vertex", Alg: "greedy", Graph: exp.GraphSpec{Family: "cycle", N: 64}, Seed: -1 - int64(j)}
}

type coldState struct {
	load   *readLoad
	nd     *node
	stream coldStream
	// The window's encoded stream: client c's request i is wires[c][i-base[c]].
	base  []int
	wires [][][]byte
}

func (s *coldState) close() {
	s.load.closeClients()
	s.nd.close()
}

// encodeWindow encodes each client's next requests for one window, so no
// JSON is encoded on the clock.
func (s *coldState) encodeWindow(perClient int) error {
	host := s.nd.http.addr
	for c := 0; c < numClients; c++ {
		s.base[c] = s.load.next[c]
		reqs := make([]service.Request, perClient)
		for k := range reqs {
			reqs[k] = s.stream.request(c, s.base[c]+k)
		}
		var err error
		if _, s.wires[c], err = encode(host, reqs); err != nil {
			return err
		}
	}
	return nil
}

// prefill sends every wire once, spread over prefillConns connections so
// the batcher groups the misses and the set-up stays short.
func prefill(addr string, wires [][]byte) error {
	var wg sync.WaitGroup
	errs := make([]error, prefillConns)
	for c := 0; c < prefillConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rc, err := dialRaw(addr)
			if err != nil {
				errs[c] = err
				return
			}
			defer rc.close()
			var mine [][]byte
			for j := c; j < len(wires); j += prefillConns {
				mine = append(mine, wires[j])
			}
			_, errs[c] = fetch(rc, mine)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

func coldRead(b *bench) error {
	n := readWindows
	if b.tr != nil {
		n = 4
	}
	perClient := int(b.seconds.Seconds()/float64(n)*coldRateCap) + coldProbes
	st, err := setupRepeated(b, func() (*coldState, setupTimes, error) {
		var t setupTimes
		t0 := time.Now()
		nd, err := startNode(colordConfig(), b.tr)
		if err != nil {
			return nil, t, err
		}
		s := &coldState{nd: nd, stream: newColdStream(b.seed), base: make([]int, numClients),
			wires: make([][][]byte, numClients),
			load:  &readLoad{svcs: []*service.Service{nd.svc}, next: make([]int, numClients)}}
		if s.load.clients, s.load.conns, err = dialClients(nd.http.addr, b.tr); err != nil {
			nd.close()
			return nil, t, err
		}
		t1 := time.Now()
		keys := make([]service.Request, prefillKeys)
		for j := range keys {
			keys[j] = prefillRequest(j)
		}
		_, prefillWires, err := encode(nd.http.addr, keys)
		if err == nil {
			err = s.encodeWindow(perClient)
		}
		if err != nil {
			s.close()
			return nil, t, err
		}
		t2 := time.Now()
		if err := prefill(nd.http.addr, prefillWires); err != nil {
			s.close()
			return nil, t, err
		}
		t3 := time.Now()
		t = setupTimes{server: t1.Sub(t0), inputs: t2.Sub(t1), warmup: t3.Sub(t2)}
		return s, t, nil
	}, (*coldState).close)
	if err != nil {
		return err
	}
	defer st.close()

	type captured struct {
		c, i int
		body []byte
	}
	var (
		capMu    sync.Mutex
		probes   []captured
		samples  []captured
		inWindow = make([]int, numClients)
	)
	st.load.wire = func(c, i int) []byte {
		k := i - st.base[c]
		if k >= len(st.wires[c]) {
			return nil
		}
		return st.wires[c][k]
	}
	st.load.check = func(c, i int, resp rawResponse) error {
		if resp.status != 200 {
			return fmt.Errorf("status %d: %s", resp.status, resp.body)
		}
		if resp.outcome != 'm' {
			return fmt.Errorf("never-seen key served as %q, want a miss", resp.outcome)
		}
		return nil
	}
	st.load.capture = func(c, i int, body []byte) {
		probe := i < coldProbes
		sample := inWindow[c] < coldSamples
		if !probe && !sample {
			return
		}
		cp := captured{c: c, i: i, body: append([]byte(nil), body...)}
		capMu.Lock()
		if probe {
			probes = append(probes, cp)
		} else {
			inWindow[c]++
			samples = append(samples, cp)
		}
		capMu.Unlock()
	}
	ws := st.load.measure(b, func(w int) {
		clear(inWindow)
		if w > 0 {
			if err := st.encodeWindow(perClient); err != nil {
				b.fail("encoding window %d: %v", w, err)
			}
		}
	})
	// The inputs are done with: the heap figure is the server's state and
	// the client's fixed buffers.
	st.wires = nil
	b.setHeap()
	d := deltaOf(ws)
	if d.coalesced != 0 || d.runs != d.requests-d.hits-d.coalesced {
		b.fail("cold keys must each run once: %d requests, %d hits, %d coalesced, %d runs", d.requests, d.hits, d.coalesced, d.runs)
	}

	// The probes are the first requests of each client's stream, so the
	// same seed always probes the same keys.
	sort.Slice(probes, func(x, y int) bool {
		return probes[x].c < probes[y].c || probes[x].c == probes[y].c && probes[x].i < probes[y].i
	})
	if len(probes) != numClients*coldProbes {
		b.fail("only %d of the %d probe keys were served", len(probes), numClients*coldProbes)
	}
	var v verifier
	for _, p := range append(probes, samples...) {
		if _, err := v.coloring(st.stream.request(p.c, p.i), p.body); err != nil {
			b.fail("client %d request %d: %v", p.c, p.i, err)
			continue
		}
		if p.i < coldProbes {
			b.digest.Write(p.body)
		}
	}
	q := probePanel(b, st.load.clients[0], st.nd.http.addr)
	if b.tr == nil {
		reportWindows(b, ws)
		b.setQuality(q)
		return nil
	}
	reportTraced(b, ws)
	var ladder []service.Request
	for c := 0; c < numClients; c++ {
		for i := 0; i < coldProbes; i++ {
			ladder = append(ladder, st.stream.request(c, i))
		}
	}
	bodies, _, err := encode(st.nd.http.addr, ladder)
	if err != nil {
		return err
	}
	colorLadder(b, samplesOf(ladder, bodies))
	return nil
}
