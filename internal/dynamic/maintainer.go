package dynamic

import (
	"errors"
	"fmt"
	"sort"
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
type Maintainer struct {
	mu     sync.Mutex
	cfg    Config
	ov     *graph.Overlay
	colors map[graph.Edge]int
	stats  Stats
	closed bool

	// scratch reused across repairs
	nbrBuf []int32
	used   colorSet
}

// New builds a Maintainer over base (which must carry default vertex
// identifiers) and computes the initial canonical coloring with a
// distributed full run.
func New(base *graph.Graph, cfg Config) (*Maintainer, error) {
	ov, err := graph.NewOverlay(base)
	if err != nil {
		return nil, err
	}
	m := &Maintainer{
		cfg:    cfg,
		ov:     ov,
		colors: make(map[graph.Edge]int, base.M()),
	}
	if err := m.recolorAll(base); err != nil {
		return nil, err
	}
	return m, nil
}

// recolorAll replaces the whole coloring with the canonical coloring of g,
// computed by one distributed run on the configured engine. Caller holds mu
// (or is New).
func (m *Maintainer) recolorAll(g *graph.Graph) error {
	colors, stats, err := CanonicalRun(g, dist.WithEngine(m.cfg.Engine))
	if err != nil {
		return err
	}
	clear(m.colors)
	for id, e := range g.Edges() {
		m.colors[e] = colors[id]
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
	if err := m.ov.Insert(u, v); err != nil {
		return Report{}, err
	}
	m.stats.Mutations++
	m.stats.Inserts++
	rep, changed, err := m.repair([]graph.Edge{canonEdge(u, v)})
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
	e := canonEdge(u, v)
	if err := m.ov.Delete(u, v); err != nil {
		return Report{}, err
	}
	delete(m.colors, e)
	m.stats.Mutations++
	m.stats.Deletes++
	// The deleted edge's color was an input to every incident lexicographic
	// successor; those are the change-propagation seeds.
	seeds := m.incidentSuccessors(e)
	rep, changed, err := m.repair(seeds)
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

// incidentSuccessors lists the current edges incident to e that follow it
// lexicographically, deduplicated (an edge sharing both endpoints cannot
// exist in a simple graph, so the two endpoint scans are disjoint except
// for e itself, which is excluded by the strict comparison).
func (m *Maintainer) incidentSuccessors(e graph.Edge) []graph.Edge {
	var out []graph.Edge
	for _, w := range [2]int{e.U, e.V} {
		m.nbrBuf = m.ov.AppendNeighbors(w, m.nbrBuf[:0])
		for _, x := range m.nbrBuf {
			f := canonEdge(w, int(x))
			if lexLessEdge(e, f) {
				out = append(out, f)
			}
		}
	}
	return out
}

// repair runs the change-propagation discovery from the seed edges and, if
// any canonical color actually changes, recolors the dirty set with a
// distributed run on the induced repair subgraph. Caller holds mu. changed
// is the recolor delta in lexicographic edge order, materialized only when
// an OnCommit hook will consume it.
func (m *Maintainer) repair(seeds []graph.Edge) (Report, []ChangedColor, error) {
	dirty, staged := m.discover(seeds)
	if len(dirty) == 0 {
		return Report{}, nil, nil
	}
	sub, origVerts, forbidden, boundary := m.repairSubgraph(dirty)
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
	// broke, which must fail loudly, never splice.
	for id, se := range sub.Edges() {
		e := canonEdge(origVerts[se.U], origVerts[se.V])
		if subColors[id] != staged[e] {
			return Report{}, nil, fmt.Errorf("dynamic: repair of %v computed color %d, discovery staged %d", e, subColors[id], staged[e])
		}
	}
	for e, c := range staged {
		m.colors[e] = c
	}
	if err := m.checkSeam(dirty); err != nil {
		return Report{}, nil, err
	}
	var changed []ChangedColor
	if m.cfg.OnCommit != nil {
		changed = make([]ChangedColor, len(dirty))
		for i, e := range dirty { // dirty is already in lexicographic order
			changed[i] = ChangedColor{U: e.U, V: e.V, Color: staged[e]}
		}
	}
	rep := Report{Dirty: len(dirty), Boundary: boundary, Vertices: sub.N(), Stats: res.Stats}
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
// equation at each seed in lexicographic order; every edge whose color
// changes stages its new color and pushes its incident successors. Edges
// are processed in lexicographic order (a min-heap), and propagation only
// ever pushes successors, so when an edge is evaluated all lexicographically
// smaller colors are final — the staged set is exactly the set of edges on
// which the canonical colorings of the old and new graphs differ. For the
// same reason no edge is pushed again once popped, so the copies of an edge
// pushed twice pop back to back and need no visited set.
func (m *Maintainer) discover(seeds []graph.Edge) ([]graph.Edge, map[graph.Edge]int) {
	staged := make(map[graph.Edge]int)
	var dirty []graph.Edge
	h := &edgeHeap{}
	for _, e := range seeds {
		h.push(e)
	}
	var last graph.Edge // U < V for every edge, so the zero Edge is none
	for h.len() > 0 {
		e := h.pop()
		if e == last {
			continue // pushed twice: its copies pop back to back
		}
		last = e
		m.used.reset()
		for _, w := range [2]int{e.U, e.V} {
			m.nbrBuf = m.ov.AppendNeighbors(w, m.nbrBuf[:0])
			for _, x := range m.nbrBuf {
				f := canonEdge(w, int(x))
				if !lexLessEdge(f, e) {
					continue
				}
				if c, ok := staged[f]; ok {
					m.used.add(c)
				} else {
					m.used.add(m.colors[f])
				}
			}
		}
		newC := m.used.mex()
		if newC == m.colors[e] { // 0 for a new edge, so an insert always stages
			continue
		}
		staged[e] = newC
		dirty = append(dirty, e)
		for _, f := range m.incidentSuccessors(e) {
			h.push(f)
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return lexLessEdge(dirty[i], dirty[j]) })
	return dirty, staged
}

// repairSubgraph builds the induced repair subgraph: exactly the dirty
// edges, on their endpoints (relabelled order-preservingly, so lexicographic
// edge order carries over). forbidden[subEdgeID] lists the colors of
// committed lexicographically smaller incident edges — the boundary
// constraints; boundary counts the distinct committed edges involved.
func (m *Maintainer) repairSubgraph(dirty []graph.Edge) (*graph.Graph, []int, [][]int, int) {
	dirtySet := make(map[graph.Edge]bool, len(dirty))
	vertSet := make(map[int]bool)
	for _, e := range dirty {
		dirtySet[e] = true
		vertSet[e.U] = true
		vertSet[e.V] = true
	}
	origVerts := make([]int, 0, len(vertSet))
	for v := range vertSet {
		origVerts = append(origVerts, v)
	}
	sort.Ints(origVerts)
	toSub := make(map[int]int, len(origVerts))
	for i, v := range origVerts {
		toSub[v] = i
	}
	b := graph.NewBuilder(len(origVerts))
	for _, e := range dirty {
		_ = b.AddEdge(toSub[e.U], toSub[e.V])
	}
	sub := b.Build()
	forbidden := make([][]int, sub.M())
	boundarySet := make(map[graph.Edge]bool)
	for id, se := range sub.Edges() {
		e := canonEdge(origVerts[se.U], origVerts[se.V])
		m.used.reset()
		top, k := 0, 0 // largest and number of distinct boundary colors of e
		for _, w := range [2]int{e.U, e.V} {
			m.nbrBuf = m.ov.AppendNeighbors(w, m.nbrBuf[:0])
			for _, x := range m.nbrBuf {
				f := canonEdge(w, int(x))
				if dirtySet[f] || !lexLessEdge(f, e) {
					continue
				}
				boundarySet[f] = true
				if c := m.colors[f]; !m.used.has(c) {
					m.used.add(c)
					top, k = max(top, c), k+1
				}
			}
		}
		if k > 0 {
			fb := make([]int, 0, k) // filled in ascending order: sorted
			for c := 1; c <= top; c++ {
				if m.used.has(c) {
					fb = append(fb, c)
				}
			}
			forbidden[id] = fb
		}
	}
	return sub, origVerts, forbidden, len(boundarySet)
}

// checkSeam verifies legality locally around the repaired edges: no dirty
// edge may share a color with any incident edge of the current graph. The
// canonical contract makes this a no-op in a correct run; it is the cheap
// guard that a splice bug cannot silently corrupt the maintained coloring.
func (m *Maintainer) checkSeam(dirty []graph.Edge) error {
	for _, e := range dirty {
		c := m.colors[e]
		for _, w := range [2]int{e.U, e.V} {
			m.nbrBuf = m.ov.AppendNeighbors(w, m.nbrBuf[:0])
			for _, x := range m.nbrBuf {
				f := canonEdge(w, int(x))
				if f != e && m.colors[f] == c {
					return fmt.Errorf("dynamic: seam violation: edges %v and %v share color %d", e, f, c)
				}
			}
		}
	}
	return nil
}

// maybeCompact compacts the overlay back to CSR when the churn layer
// outgrows the configured threshold. Compaction changes no colors — the
// coloring is keyed by endpoints, and the edge set is unchanged.
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
		m.ov.Compact()
		m.stats.Compactions++
	}
}

// Compact forces an overlay compaction.
func (m *Maintainer) Compact() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ov.Compact()
	m.stats.Compactions++
}

// Graph materializes the current mutated graph (memoized between
// mutations).
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
	g := m.ov.Materialize()
	out := make([]int, g.M())
	for id, e := range g.Edges() {
		out[id] = m.colors[e]
	}
	return out
}

// Snapshot returns the current fingerprint, shape, and coloring as one
// atomic read, so concurrent mutations cannot tear a (fingerprint, colors)
// pair apart: a response built from it names the edge set its colors are for.
func (m *Maintainer) Snapshot() (fp graph.Fingerprint, n, mm, delta int, colors []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.ov.Materialize()
	colors = make([]int, g.M())
	for id, e := range g.Edges() {
		colors[id] = m.colors[e]
	}
	return m.ov.Fingerprint(), m.ov.N(), m.ov.M(), m.ov.MaxDegree(), colors
}

// ColorOf returns the color of edge (u, v), if present.
func (m *Maintainer) ColorOf(u, v int) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.colors[canonEdge(u, v)]
	return c, ok
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

// edgeHeap is a lexicographic min-heap of edges.
type edgeHeap struct{ es []graph.Edge }

func (h *edgeHeap) len() int { return len(h.es) }

func (h *edgeHeap) push(e graph.Edge) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !lexLessEdge(h.es[i], h.es[p]) {
			break
		}
		h.es[i], h.es[p] = h.es[p], h.es[i]
		i = p
	}
}

func (h *edgeHeap) pop() graph.Edge {
	top := h.es[0]
	last := len(h.es) - 1
	h.es[0] = h.es[last]
	h.es = h.es[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.es) && lexLessEdge(h.es[l], h.es[small]) {
			small = l
		}
		if r < len(h.es) && lexLessEdge(h.es[r], h.es[small]) {
			small = r
		}
		if small == i {
			return top
		}
		h.es[i], h.es[small] = h.es[small], h.es[i]
		i = small
	}
}
