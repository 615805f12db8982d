package dist

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/wire"
)

// This file is the Compiled engine: whole-run execution of an algorithm in
// one call over the graph's flat CSR arrays. An algorithm opts in by
// bundling a hand-written flat pass (CompiledAlgo) next to its per-vertex
// function (Algo). RunAlgo dispatches to the flat pass when the Compiled
// engine is selected and the bundle carries one, and to the scheduler
// otherwise, where Compiled runs a plain per-vertex function on one shard,
// exactly as Lockstep, so the engine is always safe to ask for.
//
// The contract a CompiledAlgo must honor is strict byte-equality: for every
// graph and seed its Outputs and Stats must equal those of the per-vertex
// form under every other engine — the same colors, the same Rounds,
// Activations, Bytes and MaxMessageBytes, the same error text on a tripped
// round cap. Tally exists so compiled forms account rounds and messages in
// exactly the order and with exactly the cap semantics of the scheduler.

// CompiledEnv carries the run configuration a CompiledAlgo sees: the options
// of the run that are not engine-scheduling details.
type CompiledEnv struct {
	// Seed is the run seed (WithSeed); per-vertex streams derive from it via
	// VertexSeed, exactly as Process.Rand does.
	Seed int64
	// MaxRounds is the round cap (WithMaxRounds semantics: <= 0 means
	// uncapped). Compiled forms enforce it through Tally.StartRound.
	MaxRounds int
}

// NewTally returns a Tally enforcing this environment's round cap.
func (e CompiledEnv) NewTally() *Tally { return &Tally{maxRounds: e.MaxRounds} }

// CompiledAlgo is the whole-run form of an algorithm: it computes the output
// of every vertex of g in one call, writing outputs[v] for each vertex index
// v, and returns Stats byte-identical to what the per-vertex form of the
// same algorithm produces under the other engines. outputs has length g.N()
// > 0 (the runtime short-circuits empty graphs before dispatching).
type CompiledAlgo[T any] interface {
	RunCompiled(g *graph.Graph, env CompiledEnv, outputs []T) (Stats, error)
}

// Algo bundles the two forms of an algorithm. Vertex is required; Compiled
// is optional and is used only when the Compiled engine is selected.
type Algo[T any] struct {
	// Vertex is the per-vertex form, as accepted by Run.
	Vertex func(Process) T
	// Compiled, when non-nil, is the flat whole-run form the Compiled engine
	// executes. It must be byte-equivalent to Vertex (Outputs and Stats).
	Compiled CompiledAlgo[T]
}

// Tally accumulates Stats with the scheduler's exact accounting order, so a
// compiled form cannot drift from the engines it must stay byte-identical
// to. Per round: StartRound first (Rounds, Activations, then the cap check —
// a capped round's messages are never counted), then one Message call per
// message composed in that round, halted destinations included.
type Tally struct {
	// Stats is the accumulated accounting; read it after the run.
	Stats     Stats
	maxRounds int
}

// StartRound accounts the start of one synchronous round in which arrived
// vertices reached Round, and errors if the round cap is now exceeded — with
// the same error text and the same partially-accumulated Stats the scheduler
// reports.
func (t *Tally) StartRound(arrived int) error {
	t.Stats.Rounds++
	t.Stats.Activations += arrived
	if t.maxRounds > 0 && t.Stats.Rounds > t.maxRounds {
		return roundCapErr(t.maxRounds, t.Stats)
	}
	return nil
}

// Message accounts one composed message of the given size. Call it for every
// message a vertex stages, whether or not the destination still listens —
// the scheduler charges dropped messages too.
func (t *Tally) Message(size int) {
	t.Stats.Bytes += size
	if size > t.Stats.MaxMessageBytes {
		t.Stats.MaxMessageBytes = size
	}
}

// Messages accounts count identical messages of the given size (a
// Broadcast). count == 0 is a no-op.
func (t *Tally) Messages(count, size int) {
	if count <= 0 {
		return
	}
	t.Stats.Bytes += count * size
	if size > t.Stats.MaxMessageBytes {
		t.Stats.MaxMessageBytes = size
	}
}

// VertexPanicError is the error a run reports when the vertex with
// identifier id panics with value v. The scheduler and every flat pass that
// reproduces a per-vertex panic produce byte-identical text through it.
func VertexPanicError(id int, v any) error {
	return fmt.Errorf("dist: vertex id %d panicked: %v", id, v)
}

// PortMask is a flat pass's port table with a per-port mask, the flat
// counterpart of the per-port []bool a per-vertex form keeps to restrict
// itself to a subgraph. Off is the graph's own offset table (graph.Slots):
// port p of vertex v is slot Off[v]+p of every per-slot array, In[s] says
// whether slot s is inside the subgraph, and Deg[v] counts v's slots that
// are. Callers narrowing In keep Deg in step and keep the mask symmetric: a
// port is in exactly when its reverse is.
type PortMask struct {
	G   *graph.Graph
	Off []int32
	In  []bool
	Deg []int
}

// NewPortMask returns the mask of g with every port in.
func NewPortMask(g *graph.Graph) *PortMask {
	off, rev := g.Slots()
	pm := &PortMask{G: g, Off: off, In: make([]bool, len(rev)), Deg: g.Degrees()}
	for s := range pm.In {
		pm.In[s] = true
	}
	return pm
}

// Exchange accounts one round in which every vertex arrives and sends one
// integer, vals[v], on each of its in-ports: the round a per-vertex
// broadcast of one wire.Writer.Int on the masked ports stages.
func (pm *PortMask) Exchange(t *Tally, vals []int) error {
	if err := t.StartRound(len(vals)); err != nil {
		return err
	}
	for v, x := range vals {
		t.Messages(pm.Deg[v], wire.IntLen(x))
	}
	return nil
}

// Gather appends to dst, in port order, vals[u] for the neighbor u on each
// in-port of v: what v receives in an Exchange of vals.
func (pm *PortMask) Gather(dst []int, v int, vals []int) []int {
	in := pm.In[pm.Off[v]:pm.Off[v+1]]
	for p, u := range pm.G.Neighbors(v) {
		if in[p] {
			dst = append(dst, vals[u])
		}
	}
	return dst
}

// roundCapErr is the shared round-cap error; the scheduler and every Tally
// produce byte-identical text through it.
func roundCapErr(maxRounds int, s Stats) error {
	return fmt.Errorf("dist: round cap %d exceeded after %v; raise it with WithMaxRounds", maxRounds, s)
}

// RunAlgo executes a bundled algorithm at every vertex of g: under the
// Compiled engine (and a non-nil a.Compiled) as a flat whole-run pass,
// otherwise exactly as Run(g, a.Vertex, opts...). See Run for the execution
// contract. A flat pass builds no vertex coroutine at all.
func RunAlgo[T any](g *graph.Graph, a Algo[T], opts ...Option) (*Result[T], error) {
	cfg := parseOptions(opts)
	if cfg.engine == Compiled && a.Compiled != nil {
		return runCompiled(g, a.Compiled, cfg)
	}
	if a.Vertex == nil {
		return nil, errNoVertex
	}
	return run(g, a.Vertex, cfg)
}

var errNoVertex = errors.New("dist: algo has no Vertex form")

// runCompiled is the Compiled engine's dispatch: one whole-run pass.
func runCompiled[T any](g *graph.Graph, ca CompiledAlgo[T], cfg config) (*Result[T], error) {
	res := &Result[T]{Outputs: make([]T, g.N())}
	if g.N() == 0 {
		return res, nil
	}
	env := CompiledEnv{Seed: cfg.seed, MaxRounds: cfg.maxRounds}
	stats, err := ca.RunCompiled(g, env, res.Outputs)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}
