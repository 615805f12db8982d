package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/service"
)

// hotKeys is hot-read's working set: every template with 8 algorithm seeds,
// each on its own graph where the family takes a seed.
func hotKeys(seed int64) []service.Request {
	algBase, graphBase := inputSeeds(seed, 1)
	var keys []service.Request
	for j := 0; j < len(smallMix)*hotSeedsPerTemplate; j++ {
		r := smallMix[j%len(smallMix)]
		r.Seed = algBase + int64(j)
		if seededFamily(r.Graph.Family) {
			r.Graph.Seed = graphBase + int64(j)
		}
		keys = append(keys, r)
	}
	return keys
}

// hotState is hot-read's (and gateway-read's) prepared state.
type hotState struct {
	load     *readLoad
	nd       *node  // hot-read
	fl       *fleet // gateway-read
	keys     []service.Request
	bodies   [][]byte
	wires    [][]byte
	expected [][]byte // the answer every request for the key must get, byte for byte
}

func (s *hotState) close() {
	s.load.closeClients()
	if s.nd != nil {
		s.nd.close()
	}
	if s.fl != nil {
		s.fl.close()
	}
}

// plan wires the closed loop: client c starts halfway around the key
// ring from the other and cycles it; every answer must be a fast-lane hit
// carrying the expected bytes.
func (s *hotState) plan() {
	n := len(s.keys)
	s.load.wire = func(c, i int) []byte { return s.wires[(c*n/numClients+i)%n] }
	s.load.check = func(c, i int, resp rawResponse) error {
		k := (c*n/numClients + i) % n
		if resp.status != 200 {
			return fmt.Errorf("status %d: %s", resp.status, resp.body)
		}
		if resp.outcome != 'h' {
			return fmt.Errorf("key %d served as %q, want a cache hit", k, resp.outcome)
		}
		if !bytes.Equal(resp.body, s.expected[k]) {
			return fmt.Errorf("key %d: body differs from the first answer", k)
		}
		return nil
	}
}

func hotRead(b *bench) error {
	keys := hotKeys(b.seed)
	st, err := setupRepeated(b, func() (*hotState, setupTimes, error) {
		var t setupTimes
		t0 := time.Now()
		nd, err := startNode(colordConfig(), b.tr)
		if err != nil {
			return nil, t, err
		}
		s := &hotState{nd: nd, keys: keys, load: &readLoad{svcs: []*service.Service{nd.svc}, next: make([]int, numClients)}}
		if s.load.clients, s.load.conns, err = dialClients(nd.http.addr, b.tr); err != nil {
			nd.close()
			return nil, t, err
		}
		t1 := time.Now()
		if s.bodies, s.wires, err = encode(nd.http.addr, keys); err != nil {
			s.close()
			return nil, t, err
		}
		t2 := time.Now()
		if s.expected, err = fetch(s.load.clients[0], s.wires); err != nil {
			s.close()
			return nil, t, err
		}
		t3 := time.Now()
		t = setupTimes{server: t1.Sub(t0), inputs: t2.Sub(t1), warmup: t3.Sub(t2)}
		return s, t, nil
	}, (*hotState).close)
	if err != nil {
		return err
	}
	defer st.close()
	return runHot(b, st)
}

// runHot verifies the warm answers, measures, and reports a hot-key
// workload (hot-read directly, gateway-read through the gateway).
func runHot(b *bench, st *hotState) error {
	var v verifier
	for k, body := range st.expected {
		if _, err := v.coloring(st.keys[k], body); err != nil {
			b.fail("key %d: %v", k, err)
			continue
		}
		b.digest.Write(body)
	}
	st.plan()
	ws := st.load.measure(b, nil)
	b.setHeap()
	host := st.load.clients[0].conn.RemoteAddr().String()
	q := probePanel(b, st.load.clients[0], host)
	if b.tr == nil {
		reportWindows(b, ws)
		b.setQuality(q)
		return nil
	}
	reportTraced(b, ws)
	colorLadder(b, samplesOf(st.keys, st.bodies))
	return nil
}

func gatewayRead(b *bench) error {
	keys := hotKeys(b.seed)
	st, err := setupRepeated(b, func() (*hotState, setupTimes, error) {
		var t setupTimes
		t0 := time.Now()
		fl, err := startFleet(2, b.tr)
		if err != nil {
			return nil, t, err
		}
		s := &hotState{fl: fl, keys: keys, load: &readLoad{gw: fl.gw, next: make([]int, numClients)}}
		for _, nd := range fl.nodes {
			s.load.svcs = append(s.load.svcs, nd.svc)
		}
		if s.load.clients, s.load.conns, err = dialClients(fl.gwHTTP.addr, b.tr); err != nil {
			fl.close()
			return nil, t, err
		}
		direct, err := dialRaw(fl.nodes[0].http.addr)
		if err != nil {
			s.close()
			return nil, t, err
		}
		defer direct.close()
		t1 := time.Now()
		var directWires [][]byte
		s.bodies, s.wires, err = encode(fl.gwHTTP.addr, keys)
		if err == nil {
			_, directWires, err = encode(fl.nodes[0].http.addr, keys)
		}
		if err != nil {
			s.close()
			return nil, t, err
		}
		t2 := time.Now()
		// The direct node's answers are the reference; the pass through the
		// gateway warms each key's owner.
		if s.expected, err = fetch(direct, directWires); err == nil {
			_, err = fetch(s.load.clients[0], s.wires)
		}
		if err != nil {
			s.close()
			return nil, t, err
		}
		t3 := time.Now()
		t = setupTimes{server: t1.Sub(t0), inputs: t2.Sub(t1), warmup: t3.Sub(t2)}
		return s, t, nil
	}, (*hotState).close)
	if err != nil {
		return err
	}
	defer st.close()
	return runHot(b, st)
}
