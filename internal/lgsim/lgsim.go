// Package lgsim executes the Lemma 5.2 simulation for real: it runs an
// arbitrary vertex algorithm written for the line graph L(G) on the network
// G itself, with every virtual vertex v_e hosted by the endpoint of e with
// the smaller identifier, exactly as the lemma prescribes.
//
//   - Virtual identifiers are the ordered pairs ⟨Id(u), Id(v)⟩ encoded as
//     lo·(n+1)+hi, drawn from an identifier space of size (n+1)² (the lemma's
//     "unique Ids for vertices in L(G)").
//   - A message between adjacent virtual vertices v_e → v_f travels through
//     their shared endpoint: at most two hops in G, so one virtual round
//     costs exactly two physical rounds (phase A to the shared endpoint,
//     phase B onward), giving the lemma's 2T + O(1) bound; the O(1) is one
//     setup round in which endpoints exchange incidence lists to learn the
//     virtual topology.
//   - Up to Δ(G) virtual messages share a physical edge per phase, which is
//     the ×Δ message-size blowup the paper contrasts with the direct §5
//     variant — here it is measured, not just accounted.
//
// The caller supplies the virtual round budget (core.LegalRounds, or a native
// dry run on L(G)); every schedule-driven coloring in this repository is
// lockstep, using exactly that many rounds at every virtual vertex. Each
// hosted virtual vertex runs as an iter.Pull coroutine of its host, resumed
// once per virtual round.
//
// Buffer discipline: the relay decodes each physical inbox completely before
// its next Round call, and the virtual payloads it forwards alias only the
// message byte buffers (sender-owned, never recycled), not the pooled inbox
// slot arrays — so the simulation is compatible with the dist runtime's
// valid-until-next-Round inbox contract under every engine.
package lgsim

import (
	"fmt"
	"iter"
	"math/rand"
	"sort"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/wire"
)

// Result carries per-edge outputs plus the measured physical cost on G.
type Result[T any] struct {
	// Outputs[id] is the value returned by the virtual vertex of the edge
	// with that id in g.
	Outputs []T
	// Physical is the cost measured on G: rounds ≈ 2·virtualRounds + 1,
	// message sizes inflated by bundling (Lemma 5.2).
	Physical dist.Stats
	// VirtualRounds is the lockstep round count of the simulated algorithm.
	VirtualRounds int
}

// VirtualID encodes the identifier of the virtual vertex of edge (u,w):
// ⟨min(idU,idW), max⟩ as lo·(n+1)+hi.
func VirtualID(n, idA, idB int) int {
	lo, hi := idA, idB
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo*(n+1) + hi
}

// VirtualIDSpace is the bound callers should use as the algorithm's
// identifier-space size (the n of schedules keyed on identifiers).
func VirtualIDSpace(n int) int { return (n + 1) * (n + 1) }

// vidEndpoints decodes a virtual id back to its endpoint identifiers.
func vidEndpoints(n, vid int) (lo, hi int) {
	return vid / (n + 1), vid % (n + 1)
}

// sharedEndpoint returns the common endpoint identifier of two incident
// edges given as virtual ids.
func sharedEndpoint(n, e, f int) (int, bool) {
	a, b := vidEndpoints(n, e)
	c, d := vidEndpoints(n, f)
	switch {
	case a == c || a == d:
		return a, true
	case b == c || b == d:
		return b, true
	}
	return 0, false
}

// Run simulates algo — a vertex algorithm for L(G) using at most
// virtualRounds communication rounds at every vertex — on the network G.
// A virtual vertex that halts early stops receiving; one that is still
// calling Round after virtualRounds rounds is a caller bug, reported as a
// run error naming the virtual vertex, as is a panic in any virtual vertex.
// Either way every hosted virtual vertex is unwound before Run returns.
func Run[T any](g *graph.Graph, virtualRounds int, algo func(dist.Process) T, opts ...dist.Option) (*Result[T], error) {
	n := g.N()
	deltaL := lineGraphDegree(g)
	type hostOut struct {
		vids []int
		vals []T
	}
	runSeed := dist.SeedOf(opts...)
	res, err := dist.Run(g, func(v dist.Process) hostOut {
		h := newHost[T](v, n, deltaL, virtualRounds, runSeed, algo)
		return hostOut{vids: h.ownedVIDs, vals: h.run()}
	}, opts...)
	if err != nil {
		return nil, err
	}
	// Map host outputs back to edge ids.
	out := &Result[T]{
		Outputs:       make([]T, g.M()),
		Physical:      res.Stats,
		VirtualRounds: virtualRounds,
	}
	byVID := make(map[int]T, g.M())
	for _, ho := range res.Outputs {
		for i, vid := range ho.vids {
			byVID[vid] = ho.vals[i]
		}
	}
	for id, e := range g.Edges() {
		vid := VirtualID(n, g.ID(e.U), g.ID(e.V))
		val, ok := byVID[vid]
		if !ok {
			return nil, fmt.Errorf("lgsim: no output for edge %d (vid %d)", id, vid)
		}
		out.Outputs[id] = val
	}
	return out, nil
}

// lineGraphDegree returns Δ(L(G)) = max over edges of deg(u)+deg(w)−2.
func lineGraphDegree(g *graph.Graph) int {
	d := 0
	for _, e := range g.Edges() {
		if v := g.Deg(e.U) + g.Deg(e.V) - 2; v > d {
			d = v
		}
	}
	return d
}

// host is the per-physical-vertex simulation engine.
type host[T any] struct {
	v             dist.Process
	n             int
	deltaL        int
	virtualRounds int
	runSeed       int64
	algo          func(dist.Process) T

	portOfID map[int]int // physical neighbor id -> port
	myEdges  []int       // vids of all incident edges, sorted
	vidPort  map[int]int // incident edge vid -> physical port to the other endpoint

	ownedVIDs []int // vids this vertex hosts (it is the smaller endpoint)
	procs     map[int]*vproc[T]
}

// vproc is the virtual Process handle handed to the algorithm.
type vproc[T any] struct {
	vid    int
	n      int // VirtualIDSpace(n of G)
	deltaL int
	nbrs   []int       // neighbor vids, sorted (L(G) ports)
	portOf map[int]int // vid -> port
	rng    *rand.Rand
	seed   int64

	// The virtual vertex coroutine: next resumes it until it stages an
	// outbox at Round or returns, stop unwinds it, and yield — called from
	// inside — hands the outbox to the host.
	next  func() ([][]byte, bool)
	stop  func()
	yield func([][]byte) bool
	in    [][]byte // inbox the host delivered for the pending Round

	val T
	pan any // the virtual vertex's panic value, if it panicked
}

// stopVirtual is the sentinel panic that unwinds a stopped virtual vertex
// coroutine, running its user defers.
type stopVirtual struct{}

var _ dist.Process = (*vproc[int])(nil)

func (p *vproc[T]) ID() int                 { return p.vid }
func (p *vproc[T]) N() int                  { return p.n }
func (p *vproc[T]) MaxDegree() int          { return p.deltaL }
func (p *vproc[T]) Deg() int                { return len(p.nbrs) }
func (p *vproc[T]) NeighborID(port int) int { return p.nbrs[port] }

func (p *vproc[T]) Round(out [][]byte) [][]byte {
	if out != nil && len(out) != len(p.nbrs) {
		panic(fmt.Sprintf("lgsim: virtual vertex %d sent %d messages on %d ports", p.vid, len(out), len(p.nbrs)))
	}
	if !p.yield(out) {
		panic(stopVirtual{})
	}
	return p.in
}

func (p *vproc[T]) Broadcast(msg []byte) [][]byte {
	if msg == nil {
		return p.Round(nil)
	}
	out := make([][]byte, len(p.nbrs))
	for i := range out {
		out[i] = msg
	}
	return p.Round(out)
}

// Idle is k rounds of Round(nil): the host drives virtual rounds one by one,
// so an idling virtual vertex is still resumed each round.
func (p *vproc[T]) Idle(k int) {
	for ; k > 0; k-- {
		p.Round(nil)
	}
}

func (p *vproc[T]) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.seed))
	}
	return p.rng
}

func newHost[T any](v dist.Process, n, deltaL, virtualRounds int, runSeed int64, algo func(dist.Process) T) *host[T] {
	h := &host[T]{
		v: v, n: n, deltaL: deltaL, virtualRounds: virtualRounds, runSeed: runSeed, algo: algo,
		portOfID: make(map[int]int, v.Deg()),
		vidPort:  make(map[int]int, v.Deg()),
		procs:    make(map[int]*vproc[T]),
	}
	for p := 0; p < v.Deg(); p++ {
		h.portOfID[v.NeighborID(p)] = p
	}
	return h
}

// run performs the setup round, builds the hosted virtual vertices, then
// drives 2 physical rounds per virtual round. It returns the outputs of the
// hosted virtual vertices, parallel to ownedVIDs.
func (h *host[T]) run() []T {
	v := h.v
	deg := v.Deg()
	// Setup: exchange incidence lists so both endpoints of every edge know
	// the L(G) neighborhoods.
	var w wire.Writer
	ids := make([]int, deg)
	for p := 0; p < deg; p++ {
		ids[p] = v.NeighborID(p)
	}
	w.Ints(ids)
	setup := v.Broadcast(w.Bytes())
	nbrLists := make([][]int, deg)
	for p := 0; p < deg; p++ {
		if setup[p] == nil {
			continue
		}
		r := wire.NewReader(setup[p])
		nbrLists[p] = r.Ints()
		if r.Err() != nil {
			panic("lgsim: bad incidence list: " + r.Err().Error())
		}
	}
	// Incident edges and ownership.
	for p := 0; p < deg; p++ {
		vid := VirtualID(h.n, v.ID(), v.NeighborID(p))
		h.myEdges = append(h.myEdges, vid)
		h.vidPort[vid] = p
	}
	sort.Ints(h.myEdges)
	results := make(map[int]T)
	for p := 0; p < deg; p++ {
		nid := v.NeighborID(p)
		if v.ID() > nid {
			continue // the other endpoint hosts this edge
		}
		vid := VirtualID(h.n, v.ID(), nid)
		h.ownedVIDs = append(h.ownedVIDs, vid)
		// L(G) neighbors of v_e: other edges at this vertex + edges at the
		// far endpoint.
		seen := map[int]bool{vid: true}
		var nbrs []int
		for q := 0; q < deg; q++ {
			if q == p {
				continue
			}
			f := VirtualID(h.n, v.ID(), v.NeighborID(q))
			if !seen[f] {
				seen[f] = true
				nbrs = append(nbrs, f)
			}
		}
		for _, z := range nbrLists[p] {
			if z == v.ID() {
				continue
			}
			f := VirtualID(h.n, nid, z)
			if !seen[f] {
				seen[f] = true
				nbrs = append(nbrs, f)
			}
		}
		sort.Ints(nbrs)
		portOf := make(map[int]int, len(nbrs))
		for i, f := range nbrs {
			portOf[f] = i
		}
		vp := &vproc[T]{
			vid: vid, n: VirtualIDSpace(h.n), deltaL: h.deltaL,
			nbrs: nbrs, portOf: portOf,
			seed: dist.VertexSeed(h.runSeed, vid),
		}
		vp.next, vp.stop = iter.Pull(func(yield func([][]byte) bool) {
			vp.yield = yield
			defer func() {
				if r := recover(); r != nil {
					if _, stopped := r.(stopVirtual); !stopped {
						vp.pan = r
					}
				}
			}()
			vp.val = h.algo(vp)
		})
		h.procs[vid] = vp
	}
	sort.Ints(h.ownedVIDs)
	// However the host exits — done, a virtual panic re-raised below, or
	// its own run aborted by dist — no hosted coroutine outlives it.
	defer func() {
		for _, vid := range h.ownedVIDs {
			h.procs[vid].stop()
		}
	}()

	// Drive the virtual rounds. The host participates in every physical
	// round of the budget even after all of its own virtual vertices have
	// halted: it may still be the relay on other hosts' 2-hop paths.
	liveOut := make(map[int][][]byte, len(h.ownedVIDs))
	for r := 0; r < h.virtualRounds; r++ {
		// Gather outboxes (or completions) from every still-active virtual.
		for _, vid := range h.ownedVIDs {
			if _, done := results[vid]; done {
				continue
			}
			if out, yielded := h.step(vid, results); yielded {
				liveOut[vid] = out
			} else {
				delete(liveOut, vid)
			}
		}
		h.relay(liveOut, results)
	}
	// Collect stragglers that finish exactly at the round budget; one that
	// calls Round again has outrun the budget the caller promised (Run).
	for _, vid := range h.ownedVIDs {
		if _, done := results[vid]; done {
			continue
		}
		if _, yielded := h.step(vid, results); yielded {
			panic(fmt.Sprintf("lgsim: virtual vertex %d needs more than %d rounds", vid, h.virtualRounds))
		}
	}
	out := make([]T, len(h.ownedVIDs))
	for i, vid := range h.ownedVIDs {
		out[i] = results[vid]
	}
	return out
}

// step resumes the hosted virtual vertex vid until it stages its next
// outbox (yielded) or returns, recording its output in results. A virtual
// panic is re-raised on the host, which dist turns into a run error.
func (h *host[T]) step(vid int, results map[int]T) (out [][]byte, yielded bool) {
	vp := h.procs[vid]
	out, yielded = vp.next()
	if vp.pan != nil {
		panic(fmt.Sprintf("virtual vertex %d: %v", vid, vp.pan))
	}
	if !yielded {
		results[vid] = vp.val
	}
	return out, yielded
}

// bundleEntry is one virtual message in flight.
type bundleEntry struct {
	src, dst int
	payload  []byte
}

// relay performs the two physical phases of one virtual round and feeds the
// inboxes back to the still-active hosted virtual vertices.
func (h *host[T]) relay(liveOut map[int][][]byte, results map[int]T) {
	v := h.v
	deg := v.Deg()
	// Phase A: route each virtual message toward the shared endpoint.
	phaseA := make([][]bundleEntry, deg) // per physical port
	var direct []bundleEntry             // shared endpoint is this vertex
	// Sorted vid order, so bundle contents do not depend on map order.
	for _, vid := range h.ownedVIDs {
		out := liveOut[vid]
		if out == nil {
			continue
		}
		vp := h.procs[vid]
		for port, payload := range out {
			if payload == nil {
				continue
			}
			dst := vp.nbrs[port]
			x, ok := sharedEndpoint(h.n, vid, dst)
			if !ok {
				panic("lgsim: virtual neighbors share no endpoint")
			}
			entry := bundleEntry{src: vid, dst: dst, payload: payload}
			if x == v.ID() {
				direct = append(direct, entry)
			} else {
				// x is the far endpoint of edge vid.
				phaseA[h.vidPort[vid]] = append(phaseA[h.vidPort[vid]], entry)
			}
		}
	}
	inA := v.Round(encodeBundles(phaseA, deg))
	// Phase B: forward. Entries from phase A arrive at the shared endpoint
	// (this vertex); together with the direct entries, send each to the
	// host of its destination edge.
	phaseB := make([][]bundleEntry, deg)
	var local []bundleEntry
	routeToHost := func(e bundleEntry) {
		lo, hi := vidEndpoints(h.n, e.dst)
		hostID := lo // smaller endpoint hosts
		_ = hi
		if hostID == v.ID() {
			local = append(local, e)
			return
		}
		port, ok := h.portOfID[hostID]
		if !ok {
			// The host is the destination edge's other endpoint, which must
			// be adjacent to the shared endpoint (= this vertex).
			panic(fmt.Sprintf("lgsim: vertex %d cannot reach host %d of vid %d", v.ID(), hostID, e.dst))
		}
		phaseB[port] = append(phaseB[port], e)
	}
	for _, e := range direct {
		routeToHost(e)
	}
	for p := 0; p < deg; p++ {
		for _, e := range decodeBundle(inA[p]) {
			routeToHost(e)
		}
	}
	inB := v.Round(encodeBundles(phaseB, deg))
	// Deliver into hosted inboxes.
	inboxes := make(map[int][][]byte, len(liveOut))
	ensure := func(dst int) [][]byte {
		if box, ok := inboxes[dst]; ok {
			return box
		}
		vp, hosted := h.procs[dst]
		if !hosted {
			return nil
		}
		box := make([][]byte, len(vp.nbrs))
		inboxes[dst] = box
		return box
	}
	deliver := func(e bundleEntry) {
		vp, hosted := h.procs[e.dst]
		if !hosted {
			return // not ours (or owned by a halted vertex elsewhere)
		}
		if _, done := results[e.dst]; done {
			return // virtual vertex already halted: drop, as dist does
		}
		box := ensure(e.dst)
		port, ok := vp.portOf[e.src]
		if !ok {
			panic(fmt.Sprintf("lgsim: vid %d got message from non-neighbor %d", e.dst, e.src))
		}
		box[port] = e.payload
	}
	for _, e := range local {
		deliver(e)
	}
	for p := 0; p < deg; p++ {
		for _, e := range decodeBundle(inB[p]) {
			deliver(e)
		}
	}
	// Release the active virtual vertices with their inboxes.
	for vid := range liveOut {
		vp := h.procs[vid]
		box := inboxes[vid]
		if box == nil {
			box = make([][]byte, len(vp.nbrs))
		}
		vp.in = box
	}
}

// encodeBundles turns per-port entry lists into physical messages.
func encodeBundles(bundles [][]bundleEntry, deg int) [][]byte {
	out := make([][]byte, deg)
	for p := 0; p < deg; p++ {
		if len(bundles[p]) == 0 {
			continue
		}
		var w wire.Writer
		w.Uint(uint64(len(bundles[p])))
		for _, e := range bundles[p] {
			w.Int(e.src)
			w.Int(e.dst)
			w.Raw(e.payload)
		}
		out[p] = w.Bytes()
	}
	return out
}

// decodeBundle parses a physical bundle message (nil yields no entries).
func decodeBundle(msg []byte) []bundleEntry {
	if msg == nil {
		return nil
	}
	r := wire.NewReader(msg)
	count := r.Uint()
	if r.Err() != nil || count > uint64(len(msg)) {
		panic("lgsim: bad bundle header")
	}
	entries := make([]bundleEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		src := r.Int()
		dst := r.Int()
		payload := r.Raw()
		entries = append(entries, bundleEntry{src: src, dst: dst, payload: payload})
	}
	if r.Err() != nil {
		panic("lgsim: bad bundle: " + r.Err().Error())
	}
	return entries
}
