// Command loadgen is colord's closed-loop load generator: N concurrent
// clients replay a workload against a colord instance and report
// throughput, latency percentiles, and cache behavior.
//
// Three modes:
//
//   - -mode color (default): a mixed coloring workload (generator families
//     × sizes × algorithms × seeds) against /v1/color. An untimed warmup
//     pass primes the caches first (disable with -warmup=false), and a
//     ?detail=1 probe after the window reports the mix's mean colorsUsed.
//   - -mode churn: each client owns a dynamic graph session and streams
//     deterministic mutation batches (exp.MutationStream; the generator
//     kind rotates mix/window/hotspot across clients) against /v1/mutate,
//     measuring mutation throughput and repair latency.
//   - -mode subscribe: one mutating writer against a single session, -subs
//     concurrent SSE subscribers on /v1/subscribe, measuring writer
//     throughput alongside delta fan-out latency (commit timestamp to
//     subscriber receipt) p50/p99. -rate throttles the writer.
//
// With no -addr it starts an in-process colord on a loopback port, so one
// command measures the full HTTP round trip:
//
//	loadgen -duration 5s -clients 8 -mix small
//	loadgen -duration 5s -mode churn -clients 8 -mix small -batch 16
//	loadgen -addr http://localhost:7080 -mix medium -seeds 32
//
// Color mode's measured loop drives the server through a raw
// persistent-connection HTTP/1.1 client: net/http's per-request overhead
// costs more than colord's entire hit path, so a net/http loop would measure
// itself, not the server. -cpuprofile captures a client+server profile of
// the measurement window when the server runs in-process.
//
// The committed end-to-end numbers come from the colordbench module; the
// mixes' palettes are pinned by this package's tests.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// mixes are the named workloads: each is a list of request templates the
// clients cycle through, with -seeds seed variants per template. Families
// and algorithms deliberately span cheap (greedy on a tree) to expensive
// (the paper's recursion on a line graph), matching the mixed traffic a
// shared service would see.
func mixes(name string) ([]service.Request, error) {
	tmpl := func(kind, alg string, spec exp.GraphSpec) service.Request {
		return service.Request{Kind: kind, Alg: alg, Graph: spec}
	}
	switch name {
	case "small":
		return []service.Request{
			tmpl("edge", "be", exp.GraphSpec{Family: "gnm", N: 64, M: 192, Seed: 1}),
			tmpl("edge", "pr", exp.GraphSpec{Family: "regular", N: 48, Deg: 4, Seed: 2}),
			tmpl("edge", "greedy", exp.GraphSpec{Family: "tree", N: 64, Seed: 3}),
			tmpl("vertex", "be", exp.GraphSpec{Family: "powercycle", N: 40, Deg: 3}),
			tmpl("vertex", "greedy", exp.GraphSpec{Family: "cycle", N: 64}),
		}, nil
	case "medium":
		return []service.Request{
			tmpl("edge", "be", exp.GraphSpec{Family: "gnm", N: 256, M: 1024, Seed: 1}),
			tmpl("edge", "be", exp.GraphSpec{Family: "linegraph", N: 32, M: 120, Seed: 2}),
			tmpl("edge", "pr", exp.GraphSpec{Family: "regular", N: 128, Deg: 8, Seed: 3}),
			tmpl("edge", "greedy", exp.GraphSpec{Family: "gnm", N: 128, M: 384, Seed: 4}),
			tmpl("vertex", "be", exp.GraphSpec{Family: "powercycle", N: 120, Deg: 4}),
			tmpl("vertex", "be", exp.GraphSpec{Family: "linegraph", N: 24, M: 70, Seed: 5}),
			tmpl("vertex", "greedy", exp.GraphSpec{Family: "geometric", N: 160, Seed: 6}),
		}, nil
	case "fewcolors":
		// The quality-knob workload: the small mix's families asked for the
		// fewcolors tier (palette near Δ, more rounds per miss), plus one
		// fast-tier template for contrast. The colors-used report metric is
		// the mean measured palette over these templates.
		q := func(spec exp.GraphSpec) service.Request {
			return service.Request{Kind: "edge", Quality: "fewcolors", Graph: spec}
		}
		return []service.Request{
			q(exp.GraphSpec{Family: "gnm", N: 64, M: 192, Seed: 1}),
			q(exp.GraphSpec{Family: "regular", N: 48, Deg: 4, Seed: 2}),
			q(exp.GraphSpec{Family: "geometric", N: 96, Seed: 3}),
			tmpl("edge", "pr", exp.GraphSpec{Family: "gnm", N: 64, M: 192, Seed: 1}),
		}, nil
	default:
		return nil, fmt.Errorf("unknown mix %q (want small, medium, or fewcolors)", name)
	}
}

type result struct {
	latencies []time.Duration
	requests  int64
	errors    int64
	hits      int64
	coalesced int64
	misses    int64
	mutations int64
}

// startServer resolves the target base URL, starting an in-process colord
// on a loopback port when addr is empty. sessions sizes the in-process
// server's dynamic-session table (0 = server default); churn mode needs it
// above the client count or concurrent sessions would evict each other
// mid-stream. maxSubs raises the subscriber caps (0 = server defaults);
// subscribe mode needs it above the fleet size or late subscribers bounce
// off admission control. cleanup is always non-nil.
//
// nodes > 1 starts that many colord nodes behind an in-process colorgate —
// the returned URL is the gateway's, so the measured path includes routing,
// exactly like a deployed cluster. Each node gets a RemoteFill against its
// peers; B/op and allocs/op then cover the whole fleet.
func startServer(addr string, workers, sessions, maxSubs, nodes int) (string, func(), error) {
	if addr != "" {
		return addr, func() {}, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Match cmd/colord's default engine so in-process measurements track the
	// daemon's production configuration.
	cfg := service.Config{Workers: workers, Engine: dist.Compiled, Sessions: sessions}
	if maxSubs > 0 {
		cfg.MaxSubscribers = maxSubs
		cfg.SessionSubscribers = maxSubs
	}
	if nodes <= 1 {
		svc := service.New(cfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			svc.Close()
			return "", func() {}, err
		}
		srv := &http.Server{Handler: svc.Handler()}
		go srv.Serve(ln)
		base := "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "loadgen: in-process colord on %s (workers=%d)\n", base, workers)
		return base, func() {
			srv.Close()
			svc.Close()
		}, nil
	}

	var (
		svcs    []*service.Service
		srvs    []*http.Server
		peers   []string
		fillers = make([]atomic.Pointer[cluster.Filler], nodes)
		cleanup = func() {}
	)
	fail := func(err error) (string, func(), error) {
		for i := range srvs {
			srvs[i].Close()
			svcs[i].Close()
		}
		return "", func() {}, err
	}
	for i := 0; i < nodes; i++ {
		c := cfg
		slot := &fillers[i]
		c.RemoteFill = func(graphName, key string) []byte {
			if f := slot.Load(); f != nil {
				return f.Fill(graphName, key)
			}
			return nil
		}
		svc := service.New(c)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			svc.Close()
			return fail(err)
		}
		srv := &http.Server{Handler: svc.Handler()}
		go srv.Serve(ln)
		svcs = append(svcs, svc)
		srvs = append(srvs, srv)
		peers = append(peers, "http://"+ln.Addr().String())
	}
	for i := range fillers {
		fillers[i].Store(cluster.NewFiller(peers, peers[i], nil, 0))
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Peers: peers})
	if err != nil {
		return fail(err)
	}
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		return fail(err)
	}
	gsrv := &http.Server{Handler: gw.Handler()}
	go gsrv.Serve(gln)
	base := "http://" + gln.Addr().String()
	fmt.Fprintf(os.Stderr, "loadgen: in-process %d-node cluster behind colorgate %s (workers=%d/node)\n", nodes, base, workers)
	cleanup = func() {
		gsrv.Close()
		gw.Close()
		for i := range srvs {
			srvs[i].Close()
			svcs[i].Close()
		}
	}
	return base, cleanup, nil
}

// memCounters is a snapshot of the process allocation counters; deltas over
// the measurement window yield B/op and allocs/op. The numbers cover the
// whole process — clients plus, when the server runs in-process, the entire
// serving stack, which is the figure a zero-allocation serving path is
// accountable to.
type memCounters struct{ mallocs, bytes uint64 }

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// startCPUProfile begins a CPU profile to path ("" = no-op) and returns the
// stop function.
func startCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "", "colord base URL (empty = start an in-process colord)")
		duration = fs.Duration("duration", 5*time.Second, "how long to drive load")
		clients  = fs.Int("clients", 8, "concurrent closed-loop clients")
		mode     = fs.String("mode", "color", "workload mode: color|churn|subscribe")
		mixName  = fs.String("mix", "small", "workload mix: small|medium|fewcolors (fewcolors: color mode only)")
		seeds    = fs.Int("seeds", 8, "distinct algorithm seeds per template (controls the miss rate; color mode)")
		batch    = fs.Int("batch", 16, "mutations per request (churn and subscribe modes)")
		subs     = fs.Int("subs", 200, "concurrent SSE subscribers (subscribe mode)")
		rate     = fs.Int("rate", 0, "writer mutations/second, 0 = unthrottled (subscribe mode)")
		warmup   = fs.Bool("warmup", true, "untimed cache-priming pass over the workload before the measured window (color mode)")
		engine   = fs.String("engine", "", "request-level engine override (empty = server default; color mode)")
		workers  = fs.Int("workers", 0, "in-process server workers (0 = GOMAXPROCS)")
		profile  = fs.String("cpuprofile", "", "write a CPU profile of the measurement window to this file")
		nodes    = fs.Int("cluster", 0, "start an in-process N-node colord cluster behind a colorgate and drive it through the gateway (0 = single node; incompatible with -addr)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes > 0 && *addr != "" {
		return fmt.Errorf("-cluster starts its own in-process fleet; it cannot be combined with -addr")
	}
	if *clients < 1 || *seeds < 1 || *duration <= 0 || *batch < 1 {
		return fmt.Errorf("need -clients >= 1, -seeds >= 1, -batch >= 1, -duration > 0 (got %d, %d, %d, %v)", *clients, *seeds, *batch, *duration)
	}
	if *mode == "churn" {
		return runChurn(*addr, *duration, *clients, *mixName, *batch, *workers, *nodes, *profile)
	}
	if *mode == "subscribe" {
		if *subs < 1 {
			return fmt.Errorf("need -subs >= 1 (got %d)", *subs)
		}
		return runSubscribe(*addr, *duration, *subs, *rate, *mixName, *batch, *workers, *nodes, *profile)
	}
	if *mode != "color" {
		return fmt.Errorf("unknown mode %q (want color, churn, or subscribe)", *mode)
	}
	templates, err := mixes(*mixName)
	if err != nil {
		return err
	}
	if *engine != "" {
		if _, err := dist.ParseEngine(*engine); err != nil {
			return err
		}
		for i := range templates {
			templates[i].Engine = *engine
		}
	}
	// Expand seed variants: the workload has len(templates)*seeds distinct
	// cache keys; everything beyond the first pass over it is cache traffic.
	workload := make([][]byte, 0, len(templates)**seeds)
	for s := 0; s < *seeds; s++ {
		for _, t := range templates {
			t.Seed = int64(s)
			b, err := json.Marshal(t)
			if err != nil {
				return err
			}
			workload = append(workload, b)
		}
	}

	base, cleanup, err := startServer(*addr, *workers, 0, 0, *nodes)
	if err != nil {
		return err
	}
	defer cleanup()
	url := base + "/v1/color"
	hostPort := strings.TrimPrefix(base, "http://")

	// The full wire form of every request is prebuilt, so the send path is
	// one Write per request.
	wires := make([][]byte, len(workload))
	for i, body := range workload {
		wires[i] = formatRawRequest(hostPort, "/v1/color", body)
	}
	transport := &http.Transport{MaxIdleConnsPerHost: *clients}
	client := &http.Client{Transport: transport}

	if *warmup {
		// One untimed pass over every distinct key before the clock starts.
		// Without it, short windows on small machines measure cache *filling*
		// rather than cache *serving*: the first pass's misses are the
		// expensive colorings, and on a 2s run they can dominate the window
		// and crater the reported throughput. The warmup eats those misses
		// off the clock (priming the result cache and, since the handler is
		// keyed on raw bytes, the wire fast path too), so the measured window
		// starts at the steady state the longer runs converge to. Off-clock
		// by construction: runs before the profile and the mem0 snapshot.
		var wwg sync.WaitGroup
		warmErrs := make(chan error, *clients)
		for c := 0; c < *clients; c++ {
			wwg.Add(1)
			go func(c int) {
				defer wwg.Done()
				for i := c; i < len(workload); i += *clients {
					resp, err := client.Post(url, "application/json", bytes.NewReader(workload[i]))
					if err != nil {
						warmErrs <- err
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						warmErrs <- fmt.Errorf("warmup: status %d", resp.StatusCode)
						return
					}
				}
			}(c)
		}
		wwg.Wait()
		close(warmErrs)
		for err := range warmErrs {
			return fmt.Errorf("warmup pass failed: %w", err)
		}
	}

	stopProfile, err := startCPUProfile(*profile)
	if err != nil {
		return err
	}
	runtime.GC()
	mem0 := readMem()
	deadline := time.Now().Add(*duration)
	results := make([]result, *clients)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			rc := newRawClient(hostPort)
			defer rc.close()
			// Stagger starting offsets so clients collide on different
			// keys early (driving coalescing) and spread later.
			i := (c * 31) % len(workload)
			for time.Now().Before(deadline) {
				idx := i % len(workload)
				i++
				start := time.Now()
				r, err := rc.do(wires[idx])
				if err != nil {
					res.errors++
					continue
				}
				res.requests++
				res.latencies = append(res.latencies, time.Since(start))
				if r.status != http.StatusOK {
					res.errors++
					continue
				}
				switch r.outcome {
				case 'h':
					res.hits++
				case 'c':
					res.coalesced++
				default:
					res.misses++
				}
			}
		}(c)
	}
	wg.Wait()
	mem1 := readMem()
	stopProfile()

	var total result
	for i := range results {
		total.requests += results[i].requests
		total.errors += results[i].errors
		total.hits += results[i].hits
		total.coalesced += results[i].coalesced
		total.misses += results[i].misses
		total.latencies = append(total.latencies, results[i].latencies...)
	}
	if total.errors > 0 {
		return fmt.Errorf("%d request errors (of %d)", total.errors, total.requests)
	}
	if total.requests == 0 {
		return fmt.Errorf("no requests completed within %v", *duration)
	}
	// Palette probe, off the clock (the measured window is over). The
	// templates were served all window, so these are cache hits reporting
	// the measured palette; the mean over templates is the quality figure
	// the fewcolors mix exists for.
	_, meanColors, err := probePalettes(client, url, templates)
	if err != nil {
		return err
	}
	sort.Slice(total.latencies, func(i, j int) bool { return total.latencies[i] < total.latencies[j] })
	pct := func(p float64) time.Duration {
		idx := int(p * float64(len(total.latencies)-1))
		return total.latencies[idx]
	}
	var sum time.Duration
	for _, l := range total.latencies {
		sum += l
	}
	avg := sum / time.Duration(len(total.latencies))
	rps := float64(total.requests) / duration.Seconds()
	hitRate := float64(total.hits) / float64(total.requests)
	bytesPerOp := (mem1.bytes - mem0.bytes) / uint64(total.requests)
	allocsPerOp := (mem1.mallocs - mem0.mallocs) / uint64(total.requests)

	fmt.Printf("mix=%s clients=%d seeds=%d duration=%v\n", *mixName, *clients, *seeds, *duration)
	fmt.Printf("requests: %d (%.1f req/s), errors: %d\n", total.requests, rps, total.errors)
	fmt.Printf("latency: avg=%v p50=%v p99=%v max=%v\n", avg, pct(0.50), pct(0.99), total.latencies[len(total.latencies)-1])
	fmt.Printf("alloc: %d B/op, %d allocs/op (process-wide: clients plus the in-process server)\n", bytesPerOp, allocsPerOp)
	fmt.Printf("cache: %d hits (%.1f%%), %d coalesced, %d misses\n",
		total.hits, 100*hitRate, total.coalesced, total.misses)
	fmt.Printf("colors: mean colorsUsed=%.2f over %d templates (seed 0, ?detail=1)\n", meanColors, len(templates))
	return nil
}

// probePalettes posts each template once (seed 0) with ?detail=1 and returns
// every template's measured colorsUsed, in template order, and their mean.
// Results are deterministic, so the probe reads the same palettes hit or
// miss.
func probePalettes(client *http.Client, url string, templates []service.Request) ([]int, float64, error) {
	palettes := make([]int, len(templates))
	sum := 0
	for i, t := range templates {
		b, err := json.Marshal(t)
		if err != nil {
			return nil, 0, err
		}
		resp, err := client.Post(url+"?detail=1", "application/json", bytes.NewReader(b))
		if err != nil {
			return nil, 0, fmt.Errorf("palette probe: %w", err)
		}
		var d service.DetailResponse
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		} else {
			err = json.NewDecoder(resp.Body).Decode(&d)
		}
		resp.Body.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("palette probe: %w", err)
		}
		palettes[i] = d.ColorsUsed
		sum += d.ColorsUsed
	}
	return palettes, float64(sum) / float64(len(templates)), nil
}

// churnBases names the session base graphs of the churn mixes.
func churnBases(name string) (exp.GraphSpec, error) {
	switch name {
	case "small":
		return exp.GraphSpec{Family: "gnm", N: 128, M: 384, Seed: 1}, nil
	case "medium":
		return exp.GraphSpec{Family: "gnm", N: 512, M: 1536, Seed: 1}, nil
	default:
		return exp.GraphSpec{}, fmt.Errorf("unknown mix %q (want small or medium)", name)
	}
}

// churnKinds rotates the stream generator across clients, so one run mixes
// steady mixes, sliding windows, and hotspot hammering.
var churnKinds = []string{"mix", "window", "hotspot"}

// runChurn drives the dynamic-session API: every client owns one session
// and streams deterministic mutation batches at it, rolling over to a fresh
// session when its (long) pre-generated stream runs out. Reported latency is
// per mutate request (one batch = one repair per op, server-side).
func runChurn(addr string, duration time.Duration, clients int, mixName string, batch, workers, nodes int, profile string) error {
	base, err := churnBases(mixName)
	if err != nil {
		return err
	}
	// Pre-generate each client's round-0 mutation stream before the clock
	// starts: ops are only valid when replayed from the session's base, so
	// the stream must outlast the measurement window, and generation time
	// must not count against reported throughput. Rollover to a fresh
	// session (and a freshly generated stream — rare at this length)
	// handles the tail.
	const streamOps = 1 << 16
	genStream := func(c, round int) (exp.MutationStream, []exp.Mutation, error) {
		stream := exp.MutationStream{
			Kind: churnKinds[c%len(churnKinds)],
			Base: base,
			Ops:  streamOps,
			Seed: int64(1 + c + round*clients),
		}
		_, muts, err := stream.Generate()
		return stream, muts, err
	}
	initial := make([][]exp.Mutation, clients)
	for c := range initial {
		var err error
		if _, initial[c], err = genStream(c, 0); err != nil {
			return err
		}
	}
	// The in-process session table must hold every client's live session
	// plus rollover slack, or concurrent sessions evict each other
	// mid-stream. (Against an external -addr, the server's own -sessions
	// flag must exceed -clients the same way.)
	serverURL, cleanup, err := startServer(addr, workers, 4*clients, 0, nodes)
	if err != nil {
		return err
	}
	defer cleanup()
	url := serverURL + "/v1/mutate"

	transport := &http.Transport{MaxIdleConnsPerHost: clients}
	client := &http.Client{Transport: transport}
	stopProfile, err := startCPUProfile(profile)
	if err != nil {
		return err
	}
	runtime.GC()
	mem0 := readMem()
	deadline := time.Now().Add(duration)
	results := make([]result, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			for round := 0; time.Now().Before(deadline); round++ {
				muts := initial[c]
				if round > 0 {
					var err error
					if _, muts, err = genStream(c, round); err != nil {
						res.errors++
						return
					}
				}
				session := fmt.Sprintf("churn-%d-%d", c, round)
				exhausted := true
				for off := 0; off < len(muts); off += batch {
					if !time.Now().Before(deadline) {
						exhausted = false
						break
					}
					end := off + batch
					if end > len(muts) {
						end = len(muts)
					}
					body, err := json.Marshal(service.MutateRequest{
						Session: session,
						Base:    &base,
						Ops:     muts[off:end],
					})
					if err != nil {
						res.errors++
						return
					}
					start := time.Now()
					resp, err := client.Post(url, "application/json", bytes.NewReader(body))
					if err != nil {
						res.errors++
						continue
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					res.requests++
					res.latencies = append(res.latencies, time.Since(start))
					if resp.StatusCode != http.StatusOK {
						res.errors++
						continue
					}
					res.mutations += int64(end - off)
				}
				if !exhausted {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	mem1 := readMem()
	stopProfile()

	var total result
	for i := range results {
		total.requests += results[i].requests
		total.errors += results[i].errors
		total.mutations += results[i].mutations
		total.latencies = append(total.latencies, results[i].latencies...)
	}
	if total.errors > 0 {
		return fmt.Errorf("%d request errors (of %d)", total.errors, total.requests)
	}
	if total.requests == 0 {
		return fmt.Errorf("no requests completed within %v", duration)
	}
	sort.Slice(total.latencies, func(i, j int) bool { return total.latencies[i] < total.latencies[j] })
	pct := func(p float64) time.Duration {
		return total.latencies[int(p*float64(len(total.latencies)-1))]
	}
	var sum time.Duration
	for _, l := range total.latencies {
		sum += l
	}
	avg := sum / time.Duration(len(total.latencies))
	rps := float64(total.requests) / duration.Seconds()
	mps := float64(total.mutations) / duration.Seconds()
	bytesPerOp := (mem1.bytes - mem0.bytes) / uint64(total.requests)
	allocsPerOp := (mem1.mallocs - mem0.mallocs) / uint64(total.requests)

	fmt.Printf("mode=churn mix=%s clients=%d batch=%d duration=%v\n", mixName, clients, batch, duration)
	fmt.Printf("requests: %d (%.1f req/s), mutations: %d (%.1f mut/s), errors: %d\n",
		total.requests, rps, total.mutations, mps, total.errors)
	fmt.Printf("latency: avg=%v p50=%v p99=%v max=%v\n", avg, pct(0.50), pct(0.99), total.latencies[len(total.latencies)-1])
	fmt.Printf("alloc: %d B/op, %d allocs/op (process-wide: clients plus the in-process server)\n", bytesPerOp, allocsPerOp)
	return nil
}
