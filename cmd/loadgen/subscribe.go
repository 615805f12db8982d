package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/service"
)

// The subscribe workload: one writer streams mutations at a single session
// while a fleet of SSE subscribers drinks the delta feed. What it measures:
//
//   - writer throughput (mut/s) with the fan-out attached — comparable
//     against a churn run to price the broadcast;
//   - delta latency: every delta frame carries the commit's wall-clock
//     timestamp, and client and server share one clock (in-process server)
//     or one host, so receipt-minus-ts is the commit-to-subscriber latency.
//     Reported as p50/p99/max over all (delta, subscriber) deliveries;
//   - the ordering contract: every subscriber checks that delta seq numbers
//     are consecutive from its hello; any gap that is not an explicit
//     overflow drop fails the run;
//   - overflow drops, which are the honest outcome when the writer outruns
//     total fan-out capacity (deliberate under an unthrottled writer on a
//     small machine; -rate bounds the writer to hold the fleet).

// subResult is one subscriber's tally.
type subResult struct {
	deliveries int64
	latencies  []time.Duration
	overflows  int64
	gaps       int64 // in-order violations (not counting an explicit overflow)
	errors     int64
	// connectErr: the subscription never reached its hello. Only written
	// before the ready signal, so the fleet-launch check may read it without
	// racing the still-running consumer goroutines.
	connectErr bool
}

// subscriber runs one SSE client: read hello, signal ready, then consume
// delta frames until the stream ends or ctx cancels. The parser leans on the
// frame layout sseFrame writes (id/event/data lines, blank terminator) and
// extracts only what it needs — the id line's seq and the data line's ts —
// so a fleet of thousands stays cheap on the client side.
func subscriber(ctx context.Context, client *http.Client, url string, res *subResult, ready *sync.WaitGroup) {
	readySignaled := false
	signal := func() {
		if !readySignaled {
			readySignaled = true
			ready.Done()
		}
	}
	defer signal()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		res.errors++
		res.connectErr = true
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		res.errors++
		res.connectErr = true
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		res.errors++
		res.connectErr = true
		return
	}
	rd := bufio.NewReaderSize(resp.Body, 4096)
	var (
		event   []byte
		frameID int64 = -1
		lastSeq int64 = -1 // hello's seq once seen
		tsLine  []byte
	)
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			// Stream end: normal after a close/overflow event or ctx cancel.
			if err != io.EOF && ctx.Err() == nil && res.deliveries == 0 && res.overflows == 0 {
				res.errors++
			}
			return
		}
		line = line[:len(line)-1]
		switch {
		case len(line) == 0:
			// Frame boundary: dispatch what accumulated.
			switch string(event) {
			case "hello":
				// data carries {"seq":N,...}; the id line is absent on hello.
				var hello service.HelloEvent
				if err := json.Unmarshal(tsLine, &hello); err != nil {
					res.errors++
					res.connectErr = true
					return
				}
				lastSeq = hello.Seq
				signal()
			case "delta":
				now := time.Now()
				res.deliveries++
				if lastSeq >= 0 && frameID != lastSeq+1 {
					res.gaps++
				}
				lastSeq = frameID
				if i := bytes.Index(tsLine, []byte(`"ts":`)); i >= 0 {
					rest := tsLine[i+len(`"ts":`):]
					if j := bytes.IndexByte(rest, '}'); j >= 0 {
						rest = rest[:j]
					}
					if ts, err := strconv.ParseInt(string(rest), 10, 64); err == nil {
						res.latencies = append(res.latencies, now.Sub(time.Unix(0, ts)))
					}
				}
			case "overflow":
				res.overflows++
			case "close":
				// Session ended; uncounted — the run tears sessions down last.
			}
			event, frameID, tsLine = nil, -1, nil
		case bytes.HasPrefix(line, []byte("id: ")):
			id, err := strconv.ParseInt(string(line[len("id: "):]), 10, 64)
			if err == nil {
				frameID = id
			}
		case bytes.HasPrefix(line, []byte("event: ")):
			event = append(event[:0], line[len("event: "):]...)
		case bytes.HasPrefix(line, []byte("data: ")):
			tsLine = line[len("data: "):]
		}
	}
}

// runSubscribe drives the subscribe workload and reports it. rate throttles
// the writer to that many mutations per second (0 = as fast as the server
// accepts); batch is ops per mutate request (each op is still one delta).
func runSubscribe(addr string, duration time.Duration, subs, rate int, mixName string, batch, workers, nodes int, profile string) error {
	base, err := churnBases(mixName)
	if err != nil {
		return err
	}
	// One long pre-generated stream, like churn: generation off the clock.
	stream := exp.MutationStream{Kind: "mix", Base: base, Ops: 1 << 17, Seed: 1}
	_, muts, err := stream.Generate()
	if err != nil {
		return err
	}
	serverURL, cleanup, err := startServer(addr, workers, 0, subs+16, nodes)
	if err != nil {
		return err
	}
	defer cleanup()

	const session = "subfeed"
	mutateURL := serverURL + "/v1/mutate"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: subs + 4, MaxIdleConns: subs + 4}}
	post := func(req service.MutateRequest) error {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := client.Post(mutateURL, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("mutate: status %d: %s", resp.StatusCode, b)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := post(service.MutateRequest{Session: session, Base: &base}); err != nil {
		return fmt.Errorf("creating session: %w", err)
	}

	// Raise the fleet and wait for every hello before the writer starts, so
	// all subscribers observe the same delta sequence from its beginning.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := make([]subResult, subs)
	var ready, done sync.WaitGroup
	subscribeURL := serverURL + "/v1/subscribe?session=" + session
	for i := 0; i < subs; i++ {
		ready.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			subscriber(ctx, client, subscribeURL, &results[i], &ready)
		}(i)
	}
	ready.Wait()
	for i := range results {
		if results[i].connectErr {
			return fmt.Errorf("subscriber fleet failed to connect (subscriber %d; is the server's subscriber cap >= %d?)", i, subs)
		}
	}

	stopProfile, err := startCPUProfile(profile)
	if err != nil {
		return err
	}
	runtime.GC()
	mem0 := readMem()

	// The writer: batches off the pre-generated stream until the deadline,
	// paced to rate when set.
	var (
		mutations int64
		requests  int64
	)
	start := time.Now()
	deadline := start.Add(duration)
	next := start
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(int64(batch) * int64(time.Second) / int64(rate))
	}
	for off := 0; time.Now().Before(deadline); off += batch {
		if off+batch > len(muts) {
			// Stream exhausted (only at extreme rates): stop rather than
			// replaying ops that are invalid against the current state.
			fmt.Fprintf(os.Stderr, "loadgen: mutation stream exhausted after %d ops\n", off)
			break
		}
		if rate > 0 {
			if wait := time.Until(next); wait > 0 {
				time.Sleep(wait)
			}
			next = next.Add(interval)
		}
		if err := post(service.MutateRequest{Session: session, Ops: muts[off : off+batch]}); err != nil {
			stopProfile()
			return err
		}
		requests++
		mutations += int64(batch)
	}
	elapsed := time.Since(start)

	// Let in-flight frames land, then pull the fleet down.
	time.Sleep(300 * time.Millisecond)
	cancel()
	done.Wait()
	mem1 := readMem()
	stopProfile()

	var total subResult
	for i := range results {
		total.deliveries += results[i].deliveries
		total.overflows += results[i].overflows
		total.gaps += results[i].gaps
		total.errors += results[i].errors
		total.latencies = append(total.latencies, results[i].latencies...)
	}
	if total.errors > 0 {
		return fmt.Errorf("%d subscriber errors", total.errors)
	}
	if total.gaps > 0 {
		return fmt.Errorf("%d out-of-order deltas (gaps without an overflow event)", total.gaps)
	}
	if mutations == 0 {
		return fmt.Errorf("no mutations committed within %v", duration)
	}
	if len(total.latencies) == 0 {
		return fmt.Errorf("no deltas delivered (of %d committed)", mutations)
	}
	sort.Slice(total.latencies, func(i, j int) bool { return total.latencies[i] < total.latencies[j] })
	pct := func(p float64) time.Duration {
		return total.latencies[int(p*float64(len(total.latencies)-1))]
	}
	mps := float64(mutations) / elapsed.Seconds()
	dps := float64(total.deliveries) / elapsed.Seconds()
	bytesPerOp := (mem1.bytes - mem0.bytes) / uint64(total.deliveries)
	allocsPerOp := (mem1.mallocs - mem0.mallocs) / uint64(total.deliveries)

	fmt.Printf("mode=subscribe mix=%s subs=%d rate=%d batch=%d duration=%v\n", mixName, subs, rate, batch, duration)
	fmt.Printf("writer: %d mutations in %d requests (%.1f mut/s)\n", mutations, requests, mps)
	fmt.Printf("fan-out: %d deliveries (%.1f/s), %d overflow drops, %d gaps\n",
		total.deliveries, dps, total.overflows, total.gaps)
	fmt.Printf("delta latency: p50=%v p99=%v max=%v (commit to subscriber receipt)\n",
		pct(0.50), pct(0.99), total.latencies[len(total.latencies)-1])
	fmt.Printf("alloc: %d B/op per delivery (process-wide), %d allocs/op\n", bytesPerOp, allocsPerOp)
	return nil
}
