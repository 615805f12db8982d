package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/service"
)

// smallMix is loadgen's small mix: cheap (greedy on a tree) to expensive
// (the paper's recursion), edge and vertex kinds.
var smallMix = []service.Request{
	{Kind: "edge", Alg: "be", Graph: exp.GraphSpec{Family: "gnm", N: 64, M: 192}},
	{Kind: "edge", Alg: "pr", Graph: exp.GraphSpec{Family: "regular", N: 48, Deg: 4}},
	{Kind: "edge", Alg: "greedy", Graph: exp.GraphSpec{Family: "tree", N: 64}},
	{Kind: "vertex", Alg: "be", Graph: exp.GraphSpec{Family: "powercycle", N: 40, Deg: 3}},
	{Kind: "vertex", Alg: "greedy", Graph: exp.GraphSpec{Family: "cycle", N: 64}},
}

// coldMix adds the fewcolors tier, so the miss path covers both quality
// tiers.
var coldMix = append(append([]service.Request(nil), smallMix...),
	service.Request{Kind: "edge", Quality: "fewcolors", Graph: exp.GraphSpec{Family: "gnm", N: 64, M: 192}})

// Workload sizes.
const (
	hotSeedsPerTemplate = 8    // hot-read: 5 templates × 8 = 40 keys
	prefillKeys         = 4096 // cold-read: fills the 4096-entry caches before timing
	prefillConns        = 32   // cold-read: connections the prefill is spread over
	coldProbes          = 64   // cold-read: per-client stream prefix whose palettes make colors_used
	coldSamples         = 32   // cold-read: per-client responses legality-checked per window
	// coldRateCap is the per-client request rate the encoded stream allows
	// for: about 40× what the miss path serves on the reference host, so a
	// faster miss path finds enough keys.
	coldRateCap = 8000
	readWindows = 10 // untraced windows per read run
)

// seededFamily reports whether a family's graph depends on its seed.
func seededFamily(f string) bool { return f == "gnm" || f == "regular" || f == "tree" }

// inputSeeds derives a workload's algorithm-seed and graph-seed bases from
// -seed; salt separates workloads.
func inputSeeds(seed, salt int64) (alg, graph int64) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + salt))
	return rng.Int63n(1<<40) + 1, rng.Int63n(1<<40) + 1
}

// encode renders each request's JSON body and its POST /v1/color wire form.
func encode(host string, reqs []service.Request) (bodies, wires [][]byte, err error) {
	for _, r := range reqs {
		body, err := json.Marshal(r)
		if err != nil {
			return nil, nil, err
		}
		bodies = append(bodies, body)
		wires = append(wires, formatRequest(host, "/v1/color", body))
	}
	return bodies, wires, nil
}

// readLoad is a prepared read workload: connected clients, the services
// behind them, and the per-request plan.
type readLoad struct {
	clients []*rawClient
	conns   []int16
	next    []int // next request index of each client
	svcs    []*service.Service
	gw      *cluster.Gateway

	// wire returns client c's i-th request (nil: the stream ran out);
	// check validates its response; capture, if set, sees every
	// response body that passed (on the client's goroutine).
	wire    func(c, i int) []byte
	check   func(c, i int, resp rawResponse) error
	capture func(c, i int, body []byte)
}

func dialClients(addr string, tr *tracer) ([]*rawClient, []int16, error) {
	var (
		clients []*rawClient
		conns   []int16
	)
	for c := 0; c < numClients; c++ {
		rc, err := dialRaw(addr)
		if err != nil {
			for _, o := range clients {
				o.close()
			}
			return nil, nil, err
		}
		id := int16(-1)
		if tr != nil {
			id = tr.register(rc.local)
		}
		clients = append(clients, rc)
		conns = append(conns, id)
	}
	return clients, conns, nil
}

func (l *readLoad) closeClients() {
	for _, rc := range l.clients {
		rc.close()
	}
}

// windowResult is one measured window of a closed-loop run.
type windowResult struct {
	ops, fails int64
	lat        hist
	elapsed    time.Duration
	problems   []string
	before     snapshot
	after      snapshot
}

// log prints the window's figures to standard error as progress.
func (w *windowResult) log(label string) {
	fmt.Fprintf(os.Stderr, "colordbench: %s: %d ops in %v: %.1f op/s p50 %.1fus p99 %.1fus\n", label, w.ops,
		w.elapsed.Round(time.Millisecond), float64(w.ops)/w.elapsed.Seconds(), w.lat.quantile(0.5)/1e3, w.lat.quantile(0.99)/1e3)
}

// snapshot is the service-side and process-wide counter state between
// windows.
type snapshot struct {
	stats   []service.ServiceStats
	gw      cluster.GatewayStats
	mallocs uint64
	bytes   uint64
}

func takeSnapshot(svcs []*service.Service, gw *cluster.Gateway) snapshot {
	var s snapshot
	for _, svc := range svcs {
		s.stats = append(s.stats, svc.Stats())
	}
	if gw != nil {
		s.gw = gw.Stats()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.bytes = ms.Mallocs, ms.TotalAlloc
	return s
}

// window drives every client in a closed loop for d: each client sends its
// next request only once the previous answer is in.
func (l *readLoad) window(d time.Duration, tr *tracer) *windowResult {
	w := &windowResult{before: takeSnapshot(l.svcs, l.gw)}
	type clientResult struct {
		ops, fails int64
		lat        hist
		problems   []string
	}
	results := make([]clientResult, len(l.clients))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range l.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			rc := l.clients[c]
			failf := func(format string, args ...any) {
				res.fails++
				if len(res.problems) < 5 {
					res.problems = append(res.problems, fmt.Sprintf("client %d: ", c)+fmt.Sprintf(format, args...))
				}
			}
			for time.Now().Before(deadline) {
				i := l.next[c]
				wire := l.wire(c, i)
				if wire == nil {
					failf("request stream exhausted after %d requests", i)
					return
				}
				l.next[c]++
				var s0 int64
				if tr != nil {
					s0 = tr.now()
				}
				t0 := time.Now()
				resp, err := rc.do(wire)
				res.lat.record(time.Since(t0))
				if tr != nil {
					tr.add(span{start: s0, end: tr.now(), parent: -1, conn: l.conns[c], name: spClient})
				}
				res.ops++
				if err != nil {
					// The connection is unusable; the client stops for
					// the rest of the run and the lost ops show as a
					// throughput drop.
					failf("request %d: %v", i, err)
					return
				}
				if err := l.check(c, i, resp); err != nil {
					failf("request %d: %v", i, err)
					continue
				}
				if l.capture != nil {
					l.capture(c, i, resp.body)
				}
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	for i := range results {
		w.ops += results[i].ops
		w.fails += results[i].fails
		w.lat.merge(&results[i].lat)
		w.problems = append(w.problems, results[i].problems...)
	}
	w.after = takeSnapshot(l.svcs, l.gw)
	return w
}

// measure runs the timed phase: readWindows untraced windows, or on a
// traced run four windows alternating untraced and traced. between, if set,
// runs before each window, off the clock.
func (l *readLoad) measure(b *bench, between func(w int)) []*windowResult {
	n := readWindows
	if b.tr != nil {
		n = 4
	}
	var ws []*windowResult
	for k := 0; k < n; k++ {
		if between != nil {
			between(k)
		}
		traced := b.tr != nil && k%2 == 1
		var tr *tracer
		if traced {
			tr = b.tr
			tr.on.Store(true)
		}
		w := l.window(b.seconds/time.Duration(n), tr)
		if traced {
			tr.on.Store(false)
		}
		w.log(fmt.Sprintf("window %d traced=%v", k, traced))
		b.attempted += w.ops
		b.failed += w.fails
		for _, p := range w.problems {
			b.note(p)
		}
		ws = append(ws, w)
	}
	return ws
}

// rate is the windows' ops per second.
func rate(ws []*windowResult) float64 {
	var ops, secs float64
	for _, w := range ws {
		ops += float64(w.ops)
		secs += w.elapsed.Seconds()
	}
	return ratio(ops, secs)
}

// reportWindows sets ops_per_s and the latency percentiles from untraced
// windows: the median over the windows.
func reportWindows(b *bench, ws []*windowResult) {
	var ops, p50, p99 []float64
	for _, w := range ws {
		ops = append(ops, rate([]*windowResult{w}))
		p50 = append(p50, w.lat.quantile(0.50)/1e3)
		p99 = append(p99, w.lat.quantile(0.99)/1e3)
	}
	b.setLayer("ops_per_s", ops...)
	b.setLayer("p50_us", p50...)
	b.setLayer("p99_us", p99...)
}

// serviceDelta sums the service and gateway counter movement over windows.
type serviceDelta struct {
	requests, hits, fastHits, coalesced, runs, errors, evictions, delivered, dropped int64
	retries, peerErrors                                                              int64
	mallocs, bytes                                                                   uint64
	ops                                                                              int64
}

func deltaOf(ws []*windowResult) serviceDelta {
	var d serviceDelta
	for _, w := range ws {
		for i := range w.after.stats {
			a, s := w.after.stats[i], w.before.stats[i]
			d.requests += a.Requests - s.Requests
			d.hits += a.Hits - s.Hits
			d.fastHits += a.Fast.Hits - s.Fast.Hits
			d.coalesced += a.Coalesced - s.Coalesced
			d.runs += a.Runs - s.Runs
			d.errors += a.Errors - s.Errors
			d.evictions += a.Cache.Evictions - s.Cache.Evictions
			d.delivered += a.Delivered - s.Delivered
			d.dropped += a.Dropped - s.Dropped
		}
		d.retries += w.after.gw.Retries - w.before.gw.Retries
		d.peerErrors += w.after.gw.PeerErrors - w.before.gw.PeerErrors
		d.mallocs += w.after.mallocs - w.before.mallocs
		d.bytes += w.after.bytes - w.before.bytes
		d.ops += w.ops
	}
	return d
}

// reportService sets the counter-derived layer metrics.
func reportService(b *bench, d serviceDelta, allocs serviceDelta) {
	req := float64(d.requests)
	misses := d.requests - d.hits - d.coalesced
	b.setLayer("service.hit_frac", ratio(float64(d.hits), req))
	b.setLayer("service.fast_hit_frac", ratio(float64(d.fastHits), req))
	b.setLayer("service.coalesce_frac", ratio(float64(d.coalesced), req))
	b.setLayer("service.runs_per_miss", ratio(float64(d.runs), float64(misses)))
	b.setLayer("service.evictions_per_op", ratio(float64(d.evictions), req))
	b.setLayer("service.errors", float64(d.errors))
	b.setLayer("hub.delivered", float64(d.delivered))
	b.setLayer("hub.dropped", float64(d.dropped))
	b.setLayer("cluster.retries", float64(d.retries))
	b.setLayer("cluster.peer_errors", float64(d.peerErrors))
	b.setLayer("service.alloc_b_per_op", ratio(float64(allocs.bytes), float64(allocs.ops)))
	b.setLayer("service.allocs_per_op", ratio(float64(allocs.mallocs), float64(allocs.ops)))
}

// setupRepeated runs a workload's set-up setupReps times, tearing down all
// but the last, and reports setup_s as the median.
func setupRepeated[T any](b *bench, setup func() (T, setupTimes, error), teardown func(T)) (T, error) {
	var (
		times []setupTimes
		last  T
	)
	for k := 0; k < setupReps; k++ {
		st, t, err := setup()
		if err != nil {
			return last, err
		}
		times = append(times, t)
		if k < setupReps-1 {
			teardown(st)
		} else {
			last = st
		}
	}
	b.setSetup(times)
	return last, nil
}

// fetch sends each wire once on rc and returns copies of the bodies.
func fetch(rc *rawClient, wires [][]byte) ([][]byte, error) {
	var out [][]byte
	for i, w := range wires {
		resp, err := rc.do(w)
		if err != nil {
			return nil, err
		}
		if resp.status != 200 {
			return nil, fmt.Errorf("request %d: status %d: %s", i, resp.status, resp.body)
		}
		out = append(out, append([]byte(nil), resp.body...))
	}
	return out, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// reportTraced sets the window- and span-derived layer metrics of a traced
// read run, whose windows alternate untraced and traced.
func reportTraced(b *bench, ws []*windowResult) {
	u, t := []*windowResult{ws[0], ws[2]}, []*windowResult{ws[1], ws[3]}
	reportWindows(b, u)
	reportService(b, deltaOf(ws), deltaOf(u))
	b.setLayer("trace.overhead_frac", 1-ratio(rate(t), rate(u)))
	spans := b.tr.snapshot()
	link(spans)
	spanLayers(b, spans)
}
