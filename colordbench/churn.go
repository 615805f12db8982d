package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/dynamic"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/service"
	"repro/internal/wal"
)

const (
	churnBatch = 16 // mutations per /v1/mutate request
	// churnOpsPerSecond sizes a repetition's fixed work from --seconds: the
	// same streams, of the same length, at every run of the benchmark.
	churnOpsPerSecond = 512
	churnRepetitions  = 8
	// churnGraphs is the number of inputs (base graph and stream) every
	// repetition replays, each on a fresh session: the cost averages over
	// several graphs rather than resting on one. Repetitions and inputs stay
	// within the service's 32 live sessions.
	churnGraphs = 3
	// churnWindow is the sliding window of the stream's live inserts. A
	// window stream keeps the edge count within [m, m+churnWindow]; a mix
	// stream's edge count random-walks, so its cost per op would depend on
	// the seed far more than on the code.
	churnWindow = 32
	// panelOps is the length of each of the fixed streams the quality
	// metrics are taken over.
	panelOps = 1024
)

// churnInput is one fixed piece of work: a base graph, a mutation stream
// that is valid from it, and the state the stream must end in.
type churnInput struct {
	spec   exp.GraphSpec
	base   *graph.Graph
	muts   []exp.Mutation
	final  graph.Fingerprint // edge-set fingerprint, as sessions report it
	colors []int             // dynamic.CanonicalColors of the final graph
}

func newChurnInput(streamSeed, graphSeed int64, ops int) (*churnInput, error) {
	in := &churnInput{spec: exp.GraphSpec{Family: "gnm", N: 128, M: 384, Seed: graphSeed}}
	var err error
	in.base, in.muts, err = exp.MutationStream{Kind: "window", Base: in.spec, Ops: ops, Window: churnWindow, Seed: streamSeed}.Generate()
	if err != nil {
		return nil, err
	}
	if len(in.muts) != ops {
		return nil, fmt.Errorf("mutation stream ran out after %d of %d ops", len(in.muts), ops)
	}
	// The expected end state, rebuilt from base plus ops without the
	// maintainer.
	edges := map[graph.Edge]bool{}
	for _, e := range in.base.Edges() {
		edges[e] = true
	}
	for _, m := range in.muts {
		e := graph.Edge{U: min(m.U, m.V), V: max(m.U, m.V)}
		if m.Op == exp.OpInsert {
			edges[e] = true
		} else {
			delete(edges, e)
		}
	}
	bld := graph.NewBuilder(in.base.N())
	for e := range edges {
		if err := bld.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	g := bld.Build()
	in.final = g.EdgeSetFingerprint()
	in.colors = dynamic.CanonicalColors(g)
	return in, nil
}

// churnInputs derives the run's inputs from the seed, ops mutations each.
func churnInputs(seed int64, ops int) ([]*churnInput, error) {
	var out []*churnInput
	for g := 0; g < churnGraphs; g++ {
		streamSeed, graphSeed := inputSeeds(seed, int64(100+g))
		in, err := newChurnInput(streamSeed, graphSeed, ops)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// panelInputs are the fixed streams the quality metrics are taken over.
// They are the same for every --seed, so the metrics move only when the
// maintainer's repair does. A stream seed must differ from its graph's: gnm and the
// stream draw vertex pairs from the same generator, so equal seeds make the
// stream propose exactly the graph's edges and find no non-edge.
func panelInputs() ([]*churnInput, error) {
	var out []*churnInput
	for g := int64(1); g <= churnGraphs; g++ {
		in, err := newChurnInput(1000+g, g, panelOps)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// churnStream is one input bound to a session, with its encoded requests.
type churnStream struct {
	in      *churnInput
	session string
	create  []byte
	batches [][]byte
	read    []byte
}

func encodeStream(host string, in *churnInput, session string) (churnStream, error) {
	cs := churnStream{in: in, session: session}
	spec := in.spec
	var err error
	if cs.create, err = wireJSON(host, service.MutateRequest{Session: session, Base: &spec}); err != nil {
		return cs, err
	}
	for off := 0; off < len(in.muts); off += churnBatch {
		w, err := wireJSON(host, service.MutateRequest{Session: session, Ops: in.muts[off : off+churnBatch]})
		if err != nil {
			return cs, err
		}
		cs.batches = append(cs.batches, w)
	}
	cs.read, err = wireJSON(host, service.MutateRequest{Session: session, Colors: true})
	return cs, err
}

type churnState struct {
	nd      *node
	dir     string
	rc      *rawClient
	conn    int16
	inputs  []*churnInput
	reps    [][]churnStream // every repetition: one stream per input
	httpCli *http.Client
}

func (s *churnState) close() {
	if s.rc != nil {
		s.rc.close()
	}
	if s.nd != nil {
		s.nd.close()
	}
	s.httpCli.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

func wireJSON(host string, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return formatRequest(host, "/v1/mutate", body), nil
}

func churn(b *bench) error {
	ops := int(b.seconds.Seconds()*churnOpsPerSecond) / churnGraphs / churnBatch * churnBatch
	if ops < churnBatch {
		ops = churnBatch
	}
	reps := churnRepetitions
	if b.tr != nil {
		reps = 2 // one untraced, one traced
	}
	st, err := setupRepeated(b, func() (*churnState, setupTimes, error) {
		var t setupTimes
		t0 := time.Now()
		dir, err := os.MkdirTemp(b.workdir, "wal-")
		if err != nil {
			return nil, t, err
		}
		cfg := colordConfig()
		cfg.WALDir = dir
		nd, err := startNode(cfg, b.tr)
		if err != nil {
			os.RemoveAll(dir)
			return nil, t, err
		}
		s := &churnState{nd: nd, dir: dir, httpCli: &http.Client{Transport: &http.Transport{}}}
		if s.rc, err = dialRaw(nd.http.addr); err != nil {
			s.close()
			return nil, t, err
		}
		if b.tr != nil {
			s.conn = b.tr.register(s.rc.local)
		}
		t1 := time.Now()
		if s.inputs, err = churnInputs(b.seed, ops); err != nil {
			s.close()
			return nil, t, err
		}
		for k := 0; k < reps; k++ {
			var rep []churnStream
			for g, in := range s.inputs {
				cs, err := encodeStream(nd.http.addr, in, fmt.Sprintf("churn-%d-%d-%d", b.seed, k, g))
				if err != nil {
					s.close()
					return nil, t, err
				}
				rep = append(rep, cs)
			}
			s.reps = append(s.reps, rep)
		}
		t2 := time.Now()
		for _, rep := range s.reps {
			for _, cs := range rep {
				if err = mutate(s.rc, cs.create); err != nil {
					s.close()
					return nil, t, fmt.Errorf("creating session %s: %w", cs.session, err)
				}
			}
		}
		t3 := time.Now()
		t = setupTimes{server: t1.Sub(t0), inputs: t2.Sub(t1), warmup: t3.Sub(t2)}
		return s, t, nil
	}, (*churnState).close)
	if err != nil {
		return err
	}
	defer st.close()

	var (
		ws       []*windowResult
		deltaAll hist
		fps      []string // the last repetition's final fingerprints
	)
	for k, rep := range st.reps {
		tracing := b.tr != nil && k == 1
		res, err := churnRepetition(b, st, rep, tracing)
		if err != nil {
			return err
		}
		res.w.log(fmt.Sprintf("repetition %d traced=%v", k, tracing))
		ws = append(ws, res.w)
		deltaAll.merge(&res.delta)
		fps = res.fingerprints
		for _, fp := range fps {
			b.digest.Write([]byte(fp))
		}
	}
	b.setHeap()
	untraced := ws
	if b.tr != nil {
		untraced = ws[:1]
	}
	var (
		rates []float64
		lat   hist // every repetition's requests: one has too few for a p99
	)
	for _, w := range untraced {
		rates = append(rates, rate([]*windowResult{w}))
		lat.merge(&w.lat)
	}
	b.setLayer("ops_per_s", rates...)
	b.setLayer("p50_us", lat.quantile(0.5)/1e3)
	b.setLayer("p99_us", lat.quantile(0.99)/1e3)
	q, err := churnPanel(b, st)
	if err != nil {
		return err
	}
	if b.tr == nil {
		b.setQuality(q)
	}

	// Restart: the node goes away, and a fresh service over the same WAL
	// directory must answer the last repetition's sessions exactly as
	// before. The earlier repetitions replayed the same inputs.
	st.rc.close()
	st.nd.close()
	st.rc, st.nd = nil, nil
	recovery, err := recoverSessions(st.dir, st.reps[len(st.reps)-1], fps)
	if err != nil {
		b.fail("recovery: %v", err)
	}
	if b.tr == nil {
		return nil
	}

	reportService(b, deltaOf(ws), deltaOf(ws[:1]))
	b.setLayer("trace.overhead_frac", 1-ratio(rate(ws[1:2]), rate(ws[:1])))
	b.setLayer("hub.delta_us.p50", deltaAll.quantile(0.5)/1e3)
	b.setLayer("hub.delta_us.p99", deltaAll.quantile(0.99)/1e3)
	b.setLayer("wal.recovery_s", recovery.Seconds())
	spans := b.tr.snapshot()
	link(spans)
	spanLayers(b, spans)
	return mutationLadder(b, st.dir, st.inputs, spans)
}

func mutate(rc *rawClient, wire []byte) error {
	resp, err := rc.do(wire)
	if err != nil {
		return err
	}
	if resp.status != 200 {
		return fmt.Errorf("status %d: %s", resp.status, resp.body)
	}
	return nil
}

type repResult struct {
	w            *windowResult
	delta        hist
	fingerprints []string
}

var appliedBatch = []byte(`"applied":` + strconv.Itoa(churnBatch) + `,`)

// churnRepetition streams every input of one repetition at its fresh
// session, with one SSE subscriber attached, then checks the feed and the
// final coloring. Only the mutation requests are on the clock.
func churnRepetition(b *bench, st *churnState, rep []churnStream, tracing bool) (*repResult, error) {
	res := &repResult{w: &windowResult{}}
	w := res.w
	var tr *tracer
	if tracing {
		tr = b.tr
	}
	w.before = takeSnapshot([]*service.Service{st.nd.svc}, nil)
	for _, cs := range rep {
		sub, err := subscribe(st.httpCli, st.nd.http.url(), cs.session, int64(len(cs.in.muts)))
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.on.Store(true)
		}
		start := time.Now()
		for k, wire := range cs.batches {
			var s0 int64
			if tr != nil {
				s0 = tr.now()
			}
			t0 := time.Now()
			resp, err := st.rc.do(wire)
			w.lat.record(time.Since(t0))
			if tr != nil {
				tr.add(span{start: s0, end: tr.now(), parent: -1, conn: st.conn, name: spClient})
			}
			w.ops += churnBatch
			if err != nil {
				// The writer's connection is gone: the run cannot go on.
				sub.stop()
				b.attempted += w.ops + int64(len(cs.batches)-k-1)*churnBatch
				b.failed += int64(len(cs.batches)-k) * churnBatch
				return nil, fmt.Errorf("%s batch %d: %v", cs.session, k, err)
			}
			if resp.status != 200 || !bytes.Contains(resp.body, appliedBatch) {
				b.fail("%s batch %d: status %d: %s", cs.session, k, resp.status, resp.body)
			}
		}
		w.elapsed += time.Since(start)
		if tr != nil {
			tr.on.Store(false)
		}

		sub.wait(10 * time.Second)
		sub.stop()
		res.delta.merge(&sub.lat)
		if sub.delivered != int64(len(cs.in.muts)) || sub.gaps != 0 || sub.overflows != 0 || sub.err != nil {
			b.fail("%s feed: %d of %d deltas, %d seq gaps, %d overflows, error %v",
				cs.session, sub.delivered, len(cs.in.muts), sub.gaps, sub.overflows, sub.err)
		}
		mr, err := readFinal(b, st.rc, cs)
		if err != nil {
			return nil, err
		}
		res.fingerprints = append(res.fingerprints, mr.Fingerprint)
	}
	w.after = takeSnapshot([]*service.Service{st.nd.svc}, nil)
	b.attempted += w.ops
	return res, nil
}

// readFinal reads a session's colors, which must equal the canonical
// coloring of base plus the applied ops, with the matching fingerprint.
func readFinal(b *bench, rc *rawClient, cs churnStream) (service.MutateResponse, error) {
	var mr service.MutateResponse
	resp, err := rc.do(cs.read)
	if err != nil {
		return mr, err
	}
	if err := json.Unmarshal(resp.body, &mr); err != nil || resp.status != 200 {
		b.fail("%s colors read: status %d: %s", cs.session, resp.status, resp.body)
		return mr, nil
	}
	if mr.Fingerprint != cs.in.final.String() || !slices.Equal(mr.Colors, cs.in.colors) || mr.NumColors != graph.CountColors(cs.in.colors) {
		b.fail("%s: final coloring differs from the canonical coloring of base plus the applied ops", cs.session)
	}
	return mr, nil
}

// churnPanel streams the fixed panel inputs, off the clock and unobserved,
// at fresh sessions. colors_used is over their final colorings; rounds and
// max_msg_bytes are over the repair runs their mutation requests report.
func churnPanel(b *bench, st *churnState) (quality, error) {
	inputs, err := panelInputs()
	if err != nil {
		return quality{}, err
	}
	var (
		colors, rounds []float64
		q              quality
	)
	for g, in := range inputs {
		cs, err := encodeStream(st.nd.http.addr, in, fmt.Sprintf("panel-%d", g))
		if err != nil {
			return quality{}, err
		}
		b.attempted += int64(len(in.muts))
		if err := mutate(st.rc, cs.create); err != nil {
			b.fail("%s: %v", cs.session, err)
			continue
		}
		for k, wire := range cs.batches {
			resp, err := st.rc.do(wire)
			if err != nil {
				return quality{}, err
			}
			var mr service.MutateResponse
			if err := json.Unmarshal(resp.body, &mr); err != nil || resp.status != 200 || mr.Repair == nil {
				b.fail("%s batch %d: status %d: %s", cs.session, k, resp.status, resp.body)
				continue
			}
			rounds = append(rounds, float64(mr.Repair.Stats.Rounds))
			q.maxMsg = max(q.maxMsg, float64(mr.Repair.Stats.MaxMessageBytes))
		}
		mr, err := readFinal(b, st.rc, cs)
		if err != nil {
			return quality{}, err
		}
		colors = append(colors, float64(mr.NumColors))
	}
	q.colors, q.rounds = mean(colors), mean(rounds)
	return q, nil
}

// recoverSessions starts a fresh service over the WAL directory and times
// it up to the colors read of the last of the sessions, each of which must
// match the fingerprint and coloring it had before the restart.
func recoverSessions(dir string, rep []churnStream, fingerprints []string) (time.Duration, error) {
	cfg := colordConfig()
	cfg.WALDir = dir
	start := time.Now()
	svc := service.New(cfg)
	defer svc.Close()
	var errs []error
	for g, cs := range rep {
		resp, _, err := svc.Mutate(service.MutateRequest{Session: cs.session, Colors: true})
		switch {
		case err != nil:
			errs = append(errs, fmt.Errorf("%s: %w", cs.session, err))
		case g >= len(fingerprints) || resp.Fingerprint != fingerprints[g] || !slices.Equal(resp.Colors, cs.in.colors):
			errs = append(errs, fmt.Errorf("%s: recovered fingerprint %s differs from the one before the restart", cs.session, resp.Fingerprint))
		}
	}
	return time.Since(start), errors.Join(errs...)
}

// sseClient is one subscriber on a session's feed. It checks that delta seq
// numbers run consecutively from its hello and times each delta from its
// commit timestamp to receipt.
type sseClient struct {
	cancel context.CancelFunc
	done   chan struct{} // closed when the stream goroutine exits
	all    chan struct{} // closed once want deltas arrived

	// Written by the stream goroutine; read after done.
	lat       hist
	delivered int64
	gaps      int64
	overflows int64
	err       error

	stopOnce sync.Once
}

// subscribe opens the feed and returns once its hello has arrived, so the
// stream sees every delta committed afterwards.
func subscribe(cli *http.Client, base, session string, want int64) (*sseClient, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/subscribe?session="+session, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := cli.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != 200 {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe %s: status %d", session, resp.StatusCode)
	}
	s := &sseClient{cancel: cancel, done: make(chan struct{}), all: make(chan struct{})}
	rd := bufio.NewReaderSize(resp.Body, 16<<10)
	hello, err := readFrame(rd)
	if err != nil || hello.event != "hello" {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe %s: no hello (%v)", session, err)
	}
	var h service.HelloEvent
	if err := json.Unmarshal(hello.data, &h); err != nil {
		resp.Body.Close()
		cancel()
		return nil, err
	}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		last := h.Seq
		for {
			f, err := readFrame(rd)
			if err != nil {
				if ctx.Err() == nil {
					s.err = err
				}
				return
			}
			switch f.event {
			case "delta":
				now := time.Now()
				s.delivered++
				if f.id != last+1 {
					s.gaps++
				}
				last = f.id
				if ts, ok := tsOf(f.data); ok {
					s.lat.record(now.Sub(time.Unix(0, ts)))
				}
				if s.delivered == want {
					close(s.all)
				}
			case "overflow":
				s.overflows++
			}
		}
	}()
	return s, nil
}

// wait blocks until every expected delta arrived, the stream ended, or the
// timeout passed.
func (s *sseClient) wait(timeout time.Duration) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-s.all:
	case <-s.done:
	case <-t.C:
	}
}

// stop cancels the stream and waits for its goroutine.
func (s *sseClient) stop() {
	s.stopOnce.Do(func() {
		s.cancel()
		<-s.done
	})
}

type sseFrame struct {
	id    int64
	event string
	data  []byte
}

// readFrame reads one SSE frame (id, event, data lines, blank terminator).
func readFrame(rd *bufio.Reader) (sseFrame, error) {
	f := sseFrame{id: -1}
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			return f, err
		}
		line = bytes.TrimRight(line, "\n")
		switch {
		case len(line) == 0:
			if f.event != "" {
				return f, nil
			}
		case bytes.HasPrefix(line, []byte("id: ")):
			if f.id, err = strconv.ParseInt(string(line[4:]), 10, 64); err != nil {
				return f, fmt.Errorf("bad id line %q", line)
			}
		case bytes.HasPrefix(line, []byte("event: ")):
			f.event = string(line[7:])
		case bytes.HasPrefix(line, []byte("data: ")):
			f.data = line[6:]
		}
	}
}

// tsOf extracts the commit timestamp from a delta's data without decoding
// the whole event.
func tsOf(data []byte) (int64, bool) {
	i := bytes.LastIndex(data, []byte(`"ts":`))
	if i < 0 {
		return 0, false
	}
	rest := data[i+len(`"ts":`):]
	if j := bytes.IndexByte(rest, '}'); j >= 0 {
		rest = rest[:j]
	}
	ts, err := strconv.ParseInt(string(rest), 10, 64)
	return ts, err == nil
}

// mutationLadder replays the traced repetition's streams straight through
// the layers under /v1/mutate: Maintainer.Apply per batch, wal.Log.Append of
// the commit records, then wal.Open and dynamic.Replay of the resulting
// logs. The handler's own time per batch is its traced span minus the two.
func mutationLadder(b *bench, dir string, inputs []*churnInput, spans []span) error {
	var (
		applyH, appendH hist
		dirty, acts     int
		ops             int
		logBytes        int64
		openT, replayT  time.Duration
		batchT          []time.Duration // every batch of the repetition, in order
	)
	for g, in := range inputs {
		var recs []wal.Record
		mt, err := dynamic.New(in.base, dynamic.Config{Engine: dist.Compiled, OnCommit: func(ev dynamic.CommitEvent) {
			recs = append(recs, wal.Record{Seq: ev.Seq, Op: ev.Op, Fingerprint: ev.Fingerprint})
		}})
		if err != nil {
			return err
		}
		first := len(batchT)
		for off := 0; off < len(in.muts); off += churnBatch {
			t := time.Now()
			rep, _, err := mt.Apply(in.muts[off : off+churnBatch])
			d := time.Since(t)
			if err != nil {
				mt.Close()
				return err
			}
			applyH.record(d)
			batchT = append(batchT, d)
			dirty += rep.Dirty
			acts += rep.Stats.Activations
		}
		mt.Close()
		ops += len(in.muts)

		path := filepath.Join(dir, fmt.Sprintf("ladder-%d.wal", g))
		l, err := wal.Create(path, wal.Header{Session: fmt.Sprintf("ladder-%d", g), Base: in.spec}, wal.Options{})
		if err != nil {
			return err
		}
		headerBytes := l.Size()
		for i, rec := range recs {
			t := time.Now()
			err := l.Append(rec)
			d := time.Since(t)
			if err != nil {
				l.Close()
				return err
			}
			appendH.record(d)
			batchT[first+i/churnBatch] += d
		}
		logBytes += l.Size() - headerBytes
		if err := l.Close(); err != nil {
			return err
		}

		t := time.Now()
		l2, hdr, recs2, err := wal.Open(path, wal.Options{})
		openT += time.Since(t)
		if err != nil {
			return err
		}
		t = time.Now()
		m2, err := dynamic.Replay(hdr, recs2, dynamic.Config{Engine: dist.Compiled})
		replayT += time.Since(t)
		l2.Close()
		if err != nil {
			return err
		}
		if m2.Fingerprint() != in.final {
			b.fail("ladder replay of input %d ended at a different graph", g)
		}
		m2.Close()
	}

	// The traced repetition's handler spans, in order, are its batches.
	var handler []span
	for _, s := range spans {
		if s.name == spMutate {
			handler = append(handler, s)
		}
	}
	sort.Slice(handler, func(i, j int) bool { return handler[i].start < handler[j].start })
	var self hist
	for k, s := range handler {
		if k < len(batchT) {
			self.record(time.Duration(s.dur()) - batchT[k])
		}
	}
	n := float64(ops)
	b.setLayer("service.mutate_self_us.p50", self.quantile(0.5)/1e3)
	b.setLayer("dynamic.apply_us.p50", applyH.quantile(0.5)/1e3)
	b.setLayer("dynamic.apply_us.p99", applyH.quantile(0.99)/1e3)
	b.setLayer("dynamic.dirty_per_op", float64(dirty)/n)
	b.setLayer("dynamic.activations_per_op", float64(acts)/n)
	b.setLayer("wal.append_us.p50", appendH.quantile(0.5)/1e3)
	b.setLayer("wal.append_us.p99", appendH.quantile(0.99)/1e3)
	b.setLayer("wal.bytes_per_op", float64(logBytes)/n)
	b.setLayer("wal.open_s", openT.Seconds())
	b.setLayer("dynamic.replay_s", replayT.Seconds())
	return nil
}
