package dynamic

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/graph"
)

// Config sizes a Maintainer. The zero value is usable.
type Config struct {
	// Engine is the dist scheduler repair runs execute on.
	Engine dist.Engine
	// CompactPending is the churn-layer size that triggers compaction back
	// to CSR: 0 means the adaptive default max(64, m/4); < 0 disables
	// auto-compaction (Compact can still be called explicitly).
	CompactPending int
	// OnCommit, when set, observes every successfully committed mutation:
	// it is called under the maintainer's lock, after the repair has been
	// spliced and seam-checked, with the exact recolor delta of that
	// mutation. Calls arrive in commit order with consecutive sequence
	// numbers — the hook is the streaming feed's source of truth. It must
	// not call back into the Maintainer (deadlock) and should return
	// quickly: the mutating writer waits on it.
	OnCommit func(CommitEvent)
}

// ChangedColor is one entry of a commit's recolor delta: edge (U, V) now has
// color Color. U < V (canonical edge orientation).
type ChangedColor struct {
	U     int `json:"u"`
	V     int `json:"v"`
	Color int `json:"color"`
}

// CommitEvent is the delta of one committed mutation, as observed by
// Config.OnCommit: everything a mirror needs to track the maintained
// coloring incrementally. Applying Op to the previous edge set and Changed
// to the previous coloring (deleting the deleted edge's entry) yields the
// exact post-commit state, whose identity Fingerprint names.
type CommitEvent struct {
	// Seq is the 1-based count of committed mutations of this maintainer;
	// consecutive events have consecutive Seq.
	Seq int64
	// Op is the committed mutation.
	Op exp.Mutation
	// Report is the repair scope of this mutation (Dirty == len(Changed)).
	Report Report
	// Changed lists the edges whose color changed, in lexicographic order.
	// An insert always includes the new edge; a deletion may be empty (the
	// cascade was empty) — the deleted edge itself is never listed.
	Changed []ChangedColor
	// Fingerprint, N, M, Delta describe the graph after the commit.
	Fingerprint graph.Fingerprint
	N, M, Delta int
}

// Report is the scope of one mutation's repair: how much of the graph the
// change actually touched. Sum of Stats over repairs is in Stats.
type Report struct {
	// Dirty is the number of edges whose color changed (and were recolored
	// by the repair run). 0 means the mutation needed no recoloring at all
	// (a deletion whose cascade is empty).
	Dirty int `json:"dirty"`
	// Boundary is the number of committed edges adjacent to the dirty set
	// whose colors entered the repair as constraints.
	Boundary int `json:"boundary"`
	// Vertices is the vertex count of the induced repair subgraph.
	Vertices int `json:"vertices"`
	// Stats is the cost of the repair run (zero if Dirty == 0). Activations
	// is bounded by Vertices·Rounds — the affected region, not n.
	Stats dist.Stats `json:"stats"`
}

func (r *Report) add(o Report) {
	r.Dirty += o.Dirty
	r.Boundary += o.Boundary
	r.Vertices += o.Vertices
	r.Stats.Rounds += o.Stats.Rounds
	r.Stats.Bytes += o.Stats.Bytes
	r.Stats.Activations += o.Stats.Activations
	if o.Stats.MaxMessageBytes > r.Stats.MaxMessageBytes {
		r.Stats.MaxMessageBytes = o.Stats.MaxMessageBytes
	}
}

// Stats is the cumulative accounting of a Maintainer.
type Stats struct {
	Mutations int64 `json:"mutations"`
	Inserts   int64 `json:"inserts"`
	Deletes   int64 `json:"deletes"`
	// Repairs counts the distributed repair runs (mutations with Dirty > 0).
	Repairs int64 `json:"repairs"`
	// RepairedEdges / RepairVertices / RepairRounds / RepairActivations sum
	// the per-repair Report fields; RepairActivations versus
	// FullActivations is the locality claim in numbers.
	RepairedEdges     int64 `json:"repairedEdges"`
	RepairVertices    int64 `json:"repairVertices"`
	RepairRounds      int64 `json:"repairRounds"`
	RepairActivations int64 `json:"repairActivations"`
	// MaxDirty is the largest single repair.
	MaxDirty int `json:"maxDirty"`
	// FullRuns counts whole-graph canonical runs (the initial coloring);
	// FullActivations sums their activation counts.
	FullRuns        int64 `json:"fullRuns"`
	FullActivations int64 `json:"fullActivations"`
	// Compactions counts overlay compactions back to CSR.
	Compactions int64 `json:"compactions"`
}

// Maintainer owns a mutable graph (a graph.Overlay) and keeps the canonical
// edge coloring of its current state: after every Insert or Delete it
// discovers the exact set of edges whose canonical color changed, runs the
// distributed repair on the induced subgraph, splices the result back, and
// legality-checks the seam. At all times Colors() is byte-identical to
// CanonicalColors(Graph()) — the documented recompute contract — while
// costing only the affected region per mutation. Safe for concurrent use;
// mutations serialize.
//
// Per-edge state is indexed by the overlay's edge slots, so the mutation
// path touches no map: colors[slot] is an edge's color, and the repair's
// dirty and boundary sets are epoch-stamped slot sets.
type Maintainer struct {
	mu     sync.Mutex
	cfg    Config
	ov     *graph.Overlay
	colors []int32 // colors[slot] of every live edge; 0 on a free slot
	stats  Stats
	closed bool

	*scratch // lent by acquire while mu is held, nil otherwise
}

// scratch is the working memory of a repair or a coloring read. It holds
// nothing between calls, so maintainers borrow it from a pool rather than
// each keeping the high-water mark of its largest repair.
type scratch struct {
	adj     []graph.Incidence
	used    colorSet
	heap    edgeHeap
	dirty   []slotEdge // discovery's recolored edges, in lexicographic order
	inDirty slotSet
	inBound slotSet
	verts   []int
	toSub   []int // toSub[v] is v's vertex in the repair subgraph
	forbid  []int // backing array of the repair run's forbidden lists
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// acquire lends m pooled scratch until release. Caller holds mu.
func (m *Maintainer) acquire() {
	m.scratch = scratchPool.Get().(*scratch)
}

// release returns m's scratch to the pool. Caller holds mu.
func (m *Maintainer) release() {
	scratchPool.Put(m.scratch)
	m.scratch = nil
}

// slotEdge is an edge of the current graph together with its overlay slot.
type slotEdge struct {
	e    graph.Edge
	slot int32
}

// New builds a Maintainer over base (which must carry default vertex
// identifiers) and computes the initial canonical coloring with a
// distributed full run.
func New(base *graph.Graph, cfg Config) (*Maintainer, error) {
	ov, err := graph.NewOverlay(base)
	if err != nil {
		return nil, err
	}
	m := &Maintainer{cfg: cfg, ov: ov}
	if err := m.recolorAll(base); err != nil {
		return nil, err
	}
	return m, nil
}

// recolorAll replaces the whole coloring with the canonical coloring of g,
// the overlay's base with an empty churn layer (so slots are edge ids),
// computed by one distributed run on the configured engine. Caller holds mu
// (or is New).
func (m *Maintainer) recolorAll(g *graph.Graph) error {
	colors, stats, err := CanonicalRun(g, dist.WithEngine(m.cfg.Engine))
	if err != nil {
		return err
	}
	m.colors = make([]int32, len(colors))
	for id, c := range colors {
		m.colors[id] = int32(c)
	}
	m.stats.FullRuns++
	m.stats.FullActivations += int64(stats.Activations)
	return nil
}

// Insert adds the edge (u, v) and repairs the coloring. The returned Report
// is the repair's scope.
func (m *Maintainer) Insert(u, v int) (Report, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Report{}, errClosed
	}
	m.acquire()
	defer m.release()
	if err := m.ov.Insert(u, v); err != nil {
		return Report{}, err
	}
	m.stats.Mutations++
	m.stats.Inserts++
	// A new slot is appended with color 0 and a reused one was zeroed by
	// its delete, so the new edge reads as uncolored and always stages.
	if k := m.ov.SlotLimit() - len(m.colors); k > 0 {
		m.colors = append(m.colors, make([]int32, k)...)
	}
	slot, _ := m.ov.Slot(u, v)
	m.heap.push(slotEdge{canonEdge(u, v), slot})
	rep, changed, err := m.repair()
	if err != nil {
		// The overlay mutated but the coloring did not: serving it would
		// violate the contract, so the maintainer poisons itself.
		m.closed = true
		return rep, err
	}
	m.maybeCompact()
	m.commit(exp.Mutation{Op: exp.OpInsert, U: u, V: v}, rep, changed)
	return rep, nil
}

// Delete removes the edge (u, v) and repairs the coloring. Deletions often
// repair for free: removing a constraint only lets later edges move to
// smaller colors, and the cascade is empty whenever no incident successor
// can improve.
func (m *Maintainer) Delete(u, v int) (Report, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Report{}, errClosed
	}
	m.acquire()
	defer m.release()
	slot, _ := m.ov.Slot(u, v)
	if err := m.ov.Delete(u, v); err != nil {
		return Report{}, err
	}
	m.colors[slot] = 0
	m.stats.Mutations++
	m.stats.Deletes++
	// The deleted edge's color was an input to every incident lexicographic
	// successor; those are the change-propagation seeds.
	m.pushSuccessors(canonEdge(u, v))
	rep, changed, err := m.repair()
	if err != nil {
		m.closed = true // see Insert: a failed repair poisons the maintainer
		return rep, err
	}
	m.maybeCompact()
	m.commit(exp.Mutation{Op: exp.OpDelete, U: u, V: v}, rep, changed)
	return rep, nil
}

// commit fires the OnCommit hook for one landed mutation. Caller holds mu,
// so events are serialized in commit order; Seq is the mutation count, which
// only commits advance.
func (m *Maintainer) commit(op exp.Mutation, rep Report, changed []ChangedColor) {
	if m.cfg.OnCommit == nil {
		return
	}
	m.cfg.OnCommit(CommitEvent{
		Seq:         m.stats.Mutations,
		Op:          op,
		Report:      rep,
		Changed:     changed,
		Fingerprint: m.ov.Fingerprint(),
		N:           m.ov.N(),
		M:           m.ov.M(),
		Delta:       m.ov.MaxDegree(),
	})
}

var errClosed = errors.New("dynamic: maintainer closed")

func canonEdge(u, v int) graph.Edge {
	if u > v {
		u, v = v, u
	}
	return graph.Edge{U: u, V: v}
}

func lexLessEdge(a, b graph.Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// pushSuccessors pushes the current edges incident to e that follow it
// lexicographically onto the discovery heap (an edge sharing both endpoints
// cannot exist in a simple graph, so the two endpoint scans are disjoint
// except for e itself, which is excluded by the strict comparison).
func (m *Maintainer) pushSuccessors(e graph.Edge) {
	for _, w := range [2]int{e.U, e.V} {
		m.adj = m.ov.AppendIncident(w, m.adj[:0])
		for _, x := range m.adj {
			if f := canonEdge(w, int(x.Nbr)); lexLessEdge(e, f) {
				m.heap.push(slotEdge{f, x.Slot})
			}
		}
	}
}

// repair runs the change-propagation discovery from the edges on the heap
// and, if any canonical color actually changes, recolors the dirty set with
// a distributed run on the induced repair subgraph. Caller holds mu.
// changed is the recolor delta in lexicographic edge order, materialized
// only when an OnCommit hook will consume it.
func (m *Maintainer) repair() (Report, []ChangedColor, error) {
	m.discover()
	if len(m.dirty) == 0 {
		return Report{}, nil, nil
	}
	sub, forbidden, boundary, err := m.repairSubgraph()
	if err != nil {
		return Report{}, nil, err
	}
	res, err := dist.RunAlgo(sub, repairBundle(sub, forbidden), dist.WithEngine(m.cfg.Engine))
	if err != nil {
		return Report{}, nil, err
	}
	subColors, err := graph.MergePortColors(sub, res.Outputs)
	if err != nil {
		return Report{}, nil, err
	}
	// The distributed run and the discovery pass compute the same greedy
	// fixpoint by construction; a mismatch means the determinism contract
	// broke, which must fail loudly. Sub edge id i is dirty[i].
	for id, x := range m.dirty {
		if c := m.colors[x.slot]; subColors[id] != int(c) {
			return Report{}, nil, fmt.Errorf("dynamic: repair of %v computed color %d, discovery staged %d", x.e, subColors[id], c)
		}
	}
	if err := m.checkSeam(); err != nil {
		return Report{}, nil, err
	}
	var changed []ChangedColor
	if m.cfg.OnCommit != nil {
		changed = make([]ChangedColor, len(m.dirty))
		for i, x := range m.dirty { // dirty is already in lexicographic order
			changed[i] = ChangedColor{U: x.e.U, V: x.e.V, Color: int(m.colors[x.slot])}
		}
	}
	rep := Report{Dirty: len(m.dirty), Boundary: boundary, Vertices: sub.N(), Stats: res.Stats}
	m.stats.Repairs++
	m.stats.RepairedEdges += int64(rep.Dirty)
	m.stats.RepairVertices += int64(rep.Vertices)
	m.stats.RepairRounds += int64(rep.Stats.Rounds)
	m.stats.RepairActivations += int64(rep.Stats.Activations)
	if rep.Dirty > m.stats.MaxDirty {
		m.stats.MaxDirty = rep.Dirty
	}
	return rep, changed, nil
}

// discover runs change propagation: re-evaluate the canonical fixpoint
// equation at each heap edge in lexicographic order; every edge whose color
// changes stages its new color and pushes its incident successors. Edges
// are processed in lexicographic order (a min-heap), and propagation only
// ever pushes successors, so when an edge is evaluated all lexicographically
// smaller colors are final — the staged set is exactly the set of edges on
// which the canonical colorings of the old and new graphs differ. For the
// same reason no edge is pushed again once popped, so the copies of an edge
// pushed twice pop back to back and need no visited set, and m.dirty comes
// out in lexicographic order.
//
// A new color is staged in place in m.colors: every later evaluation must
// read it, no earlier one reads it again, and a failed repair poisons the
// maintainer, so there is nothing to roll back.
func (m *Maintainer) discover() {
	m.dirty = m.dirty[:0]
	m.inDirty.reset(len(m.colors))
	var last graph.Edge // U < V for every edge, so the zero Edge is none
	for m.heap.len() > 0 {
		x := m.heap.pop()
		if x.e == last {
			continue // pushed twice: its copies pop back to back
		}
		last = x.e
		m.used.reset()
		for _, w := range [2]int{x.e.U, x.e.V} {
			m.adj = m.ov.AppendIncident(w, m.adj[:0])
			for _, y := range m.adj {
				if lexLessEdge(canonEdge(w, int(y.Nbr)), x.e) {
					m.used.add(int(m.colors[y.Slot]))
				}
			}
		}
		newC := int32(m.used.mex())
		if newC == m.colors[x.slot] { // 0 for a new edge, so an insert always stages
			continue
		}
		m.colors[x.slot] = newC
		m.inDirty.add(x.slot)
		m.dirty = append(m.dirty, x)
		m.pushSuccessors(x.e)
	}
}

// repairSubgraph builds the induced repair subgraph: exactly the dirty
// edges, on their endpoints (relabelled order-preservingly, so lexicographic
// edge order carries over and sub edge id i is m.dirty[i]).
// forbidden[subEdgeID] lists the colors of committed lexicographically
// smaller incident edges — the boundary constraints; boundary counts the
// distinct committed edges involved.
func (m *Maintainer) repairSubgraph() (*graph.Graph, [][]int, int, error) {
	verts := m.verts[:0]
	for _, x := range m.dirty {
		verts = append(verts, x.e.U, x.e.V)
	}
	slices.Sort(verts)
	verts = slices.Compact(verts)
	m.verts = verts
	if k := m.ov.N() - len(m.toSub); k > 0 {
		m.toSub = append(m.toSub, make([]int, k)...)
	}
	for i, v := range verts {
		m.toSub[v] = i
	}
	edges := make([]graph.Edge, len(m.dirty))
	for i, x := range m.dirty {
		edges[i] = graph.Edge{U: m.toSub[x.e.U], V: m.toSub[x.e.V]}
	}
	sub, err := graph.FromSortedEdges(len(verts), edges)
	if err != nil {
		return nil, nil, 0, err
	}
	forbidden := make([][]int, len(m.dirty))
	flat := m.forbid[:0]
	m.inBound.reset(len(m.colors))
	boundary := 0
	for id, x := range m.dirty {
		m.used.reset()
		top, k := 0, 0 // largest and number of distinct boundary colors of e
		for _, w := range [2]int{x.e.U, x.e.V} {
			m.adj = m.ov.AppendIncident(w, m.adj[:0])
			for _, y := range m.adj {
				if m.inDirty.has(y.Slot) || !lexLessEdge(canonEdge(w, int(y.Nbr)), x.e) {
					continue
				}
				if m.inBound.add(y.Slot) {
					boundary++
				}
				if c := int(m.colors[y.Slot]); !m.used.has(c) {
					m.used.add(c)
					top, k = max(top, c), k+1
				}
			}
		}
		if k > 0 {
			// Filled in ascending order, so sorted. The lists share
			// m.forbid; a list left behind by a regrowth stays valid.
			start := len(flat)
			for c := 1; c <= top; c++ {
				if m.used.has(c) {
					flat = append(flat, c)
				}
			}
			forbidden[id] = flat[start:len(flat):len(flat)]
		}
	}
	m.forbid = flat
	return sub, forbidden, boundary, nil
}

// checkSeam verifies legality locally around the repaired edges: no dirty
// edge may share a color with any incident edge of the current graph. The
// canonical contract makes this a no-op in a correct run; it is the cheap
// guard that a splice bug cannot silently corrupt the maintained coloring.
func (m *Maintainer) checkSeam() error {
	for _, x := range m.dirty {
		c := m.colors[x.slot]
		for _, w := range [2]int{x.e.U, x.e.V} {
			m.adj = m.ov.AppendIncident(w, m.adj[:0])
			for _, y := range m.adj {
				if y.Slot != x.slot && m.colors[y.Slot] == c {
					return fmt.Errorf("dynamic: seam violation: edges %v and %v share color %d", x.e, canonEdge(w, int(y.Nbr)), c)
				}
			}
		}
	}
	return nil
}

// maybeCompact compacts the overlay back to CSR when the churn layer
// outgrows the configured threshold.
func (m *Maintainer) maybeCompact() {
	if m.cfg.CompactPending < 0 {
		return
	}
	threshold := m.cfg.CompactPending
	if threshold == 0 {
		threshold = m.ov.Base().M() / 4
		if threshold < 64 {
			threshold = 64
		}
	}
	if m.ov.Pending() >= threshold {
		m.compact()
	}
}

// Compact forces an overlay compaction.
func (m *Maintainer) Compact() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.compact()
}

// compact compacts the overlay and carries the colors over to the
// renumbered slots. It changes no color. Caller holds mu.
func (m *Maintainer) compact() {
	oldSlot := m.ov.Compact()
	colors := make([]int32, len(oldSlot))
	for id, s := range oldSlot {
		colors[id] = m.colors[s]
	}
	m.colors = colors
	m.stats.Compactions++
}

// Graph materializes the current mutated graph: a fresh CSR build on every
// call unless no mutation is pending since the last compaction.
func (m *Maintainer) Graph() *graph.Graph {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ov.Materialize()
}

// Colors returns the maintained coloring in the canonical edge-id order of
// Graph(). It is byte-identical to CanonicalColors(Graph()).
func (m *Maintainer) Colors() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.canonicalColors()
}

// Snapshot returns the current fingerprint, shape, and coloring as one
// atomic read, so concurrent mutations cannot tear a (fingerprint, colors)
// pair apart: a response built from it names the edge set its colors are for.
func (m *Maintainer) Snapshot() (fp graph.Fingerprint, n, mm, delta int, colors []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ov.Fingerprint(), m.ov.N(), m.ov.M(), m.ov.MaxDegree(), m.canonicalColors()
}

// canonicalColors emits the colors in canonical edge order — the edge ids
// Graph() would assign — by walking each vertex's merged adjacency above
// it, without building a CSR. Caller holds mu.
func (m *Maintainer) canonicalColors() []int {
	m.acquire()
	defer m.release()
	out := make([]int, 0, m.ov.M())
	for u := range m.ov.N() {
		m.adj = m.ov.AppendIncident(u, m.adj[:0])
		for _, y := range m.adj {
			if int(y.Nbr) > u {
				out = append(out, int(m.colors[y.Slot]))
			}
		}
	}
	return out
}

// ColorOf returns the color of edge (u, v), if present.
func (m *Maintainer) ColorOf(u, v int) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	slot, ok := m.ov.Slot(u, v)
	if !ok {
		return 0, false
	}
	return int(m.colors[slot]), true
}

// Fingerprint returns the incrementally tracked edge-set fingerprint of the
// current graph — the cache key the service invalidates on.
func (m *Maintainer) Fingerprint() graph.Fingerprint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ov.Fingerprint()
}

// Apply runs a mutation sequence (exp.MutationStream vocabulary) through
// the maintainer, one repair per mutation, and returns the aggregated
// repair scope. It stops at the first failing mutation; applied reports
// how many mutations landed (they remain applied — an op list is not a
// transaction), and the error names the failing op.
func (m *Maintainer) Apply(muts []exp.Mutation) (total Report, applied int, err error) {
	for i, mut := range muts {
		var rep Report
		switch mut.Op {
		case exp.OpInsert:
			rep, err = m.Insert(mut.U, mut.V)
		case exp.OpDelete:
			rep, err = m.Delete(mut.U, mut.V)
		default:
			err = fmt.Errorf("dynamic: unknown mutation op %q", mut.Op)
		}
		if err != nil {
			return total, applied, fmt.Errorf("dynamic: mutation %d (%s %d-%d): %w", i, mut.Op, mut.U, mut.V, err)
		}
		applied++
		total.add(rep)
	}
	return total, applied, nil
}

// Engine reports the dist scheduler this maintainer's repair runs execute
// on; monitoring endpoints (/statz) use it to attribute repair cost.
func (m *Maintainer) Engine() dist.Engine {
	return m.cfg.Engine
}

// Poisoned reports whether a failed repair has permanently disabled the
// maintainer (see Insert); owners should discard it.
func (m *Maintainer) Poisoned() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Shape returns the current fingerprint and dimensions as one atomic read,
// without materializing the coloring — the cheap monitoring counterpart of
// Snapshot.
func (m *Maintainer) Shape() (fp graph.Fingerprint, n, mm, delta int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ov.Fingerprint(), m.ov.N(), m.ov.M(), m.ov.MaxDegree()
}

// StreamState returns the current fingerprint, dimensions, and committed-
// mutation count as one atomic read — what a streaming subscriber's hello
// snapshot needs: every commit after this read has Seq greater than seq.
func (m *Maintainer) StreamState() (fp graph.Fingerprint, n, mm, delta int, seq int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ov.Fingerprint(), m.ov.N(), m.ov.M(), m.ov.MaxDegree(), m.stats.Mutations
}

// Stats snapshots the cumulative accounting.
func (m *Maintainer) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Close ends the maintainer: further mutations fail. Repair runs hold no
// state between mutations, so there is nothing else to release.
func (m *Maintainer) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
}

// slotSet is a set of slots emptied in O(1) by bumping an epoch — the
// colorSet idiom keyed by slot. reset sizes it to a slot limit and empties
// it; call it before the first use.
type slotSet struct {
	stamp []uint32
	epoch uint32
}

func (s *slotSet) reset(limit int) {
	if k := limit - len(s.stamp); k > 0 {
		s.stamp = append(s.stamp, make([]uint32, k)...)
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: old stamps would alias the new epoch
		clear(s.stamp)
		s.epoch = 1
	}
}

// add inserts slot and reports whether it was absent.
func (s *slotSet) add(slot int32) bool {
	if s.stamp[slot] == s.epoch {
		return false
	}
	s.stamp[slot] = s.epoch
	return true
}

func (s *slotSet) has(slot int32) bool { return s.stamp[slot] == s.epoch }

// edgeHeap is a lexicographic min-heap of edges with their slots.
type edgeHeap struct{ es []slotEdge }

func (h *edgeHeap) len() int { return len(h.es) }

func (h *edgeHeap) push(e slotEdge) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !lexLessEdge(h.es[i].e, h.es[p].e) {
			break
		}
		h.es[i], h.es[p] = h.es[p], h.es[i]
		i = p
	}
}

func (h *edgeHeap) pop() slotEdge {
	top := h.es[0]
	last := len(h.es) - 1
	h.es[0] = h.es[last]
	h.es = h.es[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.es) && lexLessEdge(h.es[l].e, h.es[small].e) {
			small = l
		}
		if r < len(h.es) && lexLessEdge(h.es[r].e, h.es[small].e) {
			small = r
		}
		if small == i {
			return top
		}
		h.es[i], h.es[small] = h.es[small], h.es[i]
		i = small
	}
}
