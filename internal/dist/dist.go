// Package dist is the synchronous message-passing runtime underlying every
// algorithm in this repository: a faithful executable model of the LOCAL
// setting the paper works in (Barenboim & Elkin, PODC 2011, §2).
//
// An algorithm is an ordinary Go function of type func(Process) T. Run
// executes one logical instance of it per vertex of a graph.Graph; the
// instances communicate only through Process.Round, which implements the
// synchronous round of the LOCAL model: every still-running vertex hands the
// runtime one outgoing message per incident edge (or nil), blocks, and
// resumes with the messages its neighbors addressed to it in the same round.
// A vertex halts by returning from the function; its return value becomes
// its entry in Result.Outputs and any message later sent to it is dropped.
// Process.Idle(k) stands for k rounds of Round(nil) whose inboxes are
// discarded: the vertex still arrives at each of those rounds, but the
// scheduler does not resume it until the k-th is over.
//
// Ports. A vertex of degree d communicates over ports 0..d-1, one per
// incident edge, ordered by increasing neighbor vertex index — exactly
// graph.Neighbors. Port i of vertex v and the port that v occupies in the
// adjacency list of its i-th neighbor name the same edge; the runtime
// performs that translation during delivery, so algorithms never see the
// remote port numbering.
//
// Engines. One scheduler executes every per-vertex function: each vertex
// runs as an iter.Pull coroutine, and the vertex set is split into
// contiguous shards; each round, one worker per shard resumes the shard's
// vertices in index order, while distinct shards run concurrently (sharded.go
// documents the mechanism). WithEngine names a shard count:
//
//   - Goroutines (default) and Sharded use WithShards shards, GOMAXPROCS by
//     default, each resumed by a worker goroutine of its own. Vertices of
//     different shards genuinely run concurrently between round barriers,
//     so `go test -race` exercises real message-passing isolation.
//   - Lockstep uses exactly one shard, resumed on the caller's goroutine: no
//     two vertex instances ever run simultaneously, and every round resumes
//     the vertices in index order.
//   - Compiled runs algorithms that carry a hand-written whole-graph form
//     (RunAlgo) as flat passes over the graph arrays. Any other per-vertex
//     function runs on one shard, exactly as Lockstep.
//
// For a fixed graph and seed all engines produce byte-identical
// Result.Outputs and Result.Stats: scheduling differs, the computation does
// not. TestEnginesAgree pins this.
//
// One-shot runs. A run starts from each vertex's initial local state and
// ends when every vertex halts, so no runtime state outlives it: Run and
// RunAlgo build the per-vertex state (procs, vertex coroutines, shards,
// delivery queues) for the one run, and its coroutines end before the call
// returns, a failed run's included. Concurrent runs share nothing.
//
// Determinism. WithSeed fixes the per-vertex PRNG streams returned by
// Process.Rand; each vertex derives its stream from (seed, identifier) with
// a splitmix64 mix, so streams are distinct across vertices yet reproducible
// across runs and engines. The default seed is 0 — runs are deterministic
// unless the caller opts into varying the seed.
//
// Accounting. Stats reports the measured cost of a run in the units the
// paper states its bounds in: Rounds is the number of synchronous rounds
// executed (a round in which every remaining vertex halts without calling
// Round does not count), Bytes is the total size of all messages sent, and
// MaxMessageBytes is the largest single message — the quantity behind the
// O(log n) / O(p·log Δ) message-size claims of §1.1 and §5.
//
// See DESIGN.md for the full runtime contract and the package inventory of
// the repository.
package dist

import (
	"fmt"
	"math/rand"
)

// Process is the handle through which a vertex algorithm observes its
// position in the network and communicates. It is the entire API available
// to an algorithm; everything a vertex knows beyond its initial local state
// arrives through Round.
type Process interface {
	// ID returns this vertex's distinct identifier (graph.Graph.ID): a
	// value in {1..n} by default, permutable via graph.SetIDs.
	ID() int
	// N returns the size of the identifier space, i.e. the number of
	// vertices of the underlying graph for runs started by Run. (Virtual
	// networks, such as the Lemma 5.2 simulation in package lgsim, report
	// the size of their virtual identifier space instead.)
	N() int
	// Deg returns the number of incident edges (= ports).
	Deg() int
	// MaxDegree returns Δ of the underlying graph, global knowledge the
	// paper's algorithms assume (§2).
	MaxDegree() int
	// NeighborID returns the identifier of the neighbor on the given port.
	// Ports number 0..Deg()-1 in increasing neighbor-index order.
	NeighborID(port int) int
	// Round performs one synchronous communication round. out is either nil
	// (send nothing) or a slice of exactly Deg() messages, out[port] being
	// the message for that port (nil = no message on that port). Round
	// blocks until every other still-running vertex has reached its own
	// Round call or halted, then returns the received messages: in[port] is
	// the message the neighbor on that port addressed to this vertex, nil
	// if it sent none (or has halted). The returned slice always has length
	// Deg(). Passing a non-nil out of the wrong length panics, which Run
	// reports as an error.
	//
	// Message buffers are handed over by reference: a sender must not
	// mutate a buffer after passing it to Round (wire.Writer's contract),
	// and a receiver must treat inbound buffers as read-only — a Broadcast
	// delivers the same underlying bytes to every neighbor. The returned
	// slice is a pooled buffer: it is read-only too (writing into its
	// slots can resurface the written values as phantom messages in later
	// rounds, since delivery clears only the slots it filled), and it is
	// valid only until this vertex's next Round call, after which the
	// runtime recycles it. Passing the returned slice itself back as the
	// next out is supported — the runtime snapshots it before recycling.
	Round(out [][]byte) [][]byte
	// Broadcast sends msg on every port and returns the received messages;
	// Broadcast(nil) is Round(nil) — a round in which nothing is sent.
	// Each of the Deg() copies is accounted separately in Stats. The
	// outbox Broadcast stages is a per-vertex scratch slice that is
	// invalidated at the next Round or Broadcast call.
	Broadcast(msg []byte) [][]byte
	// Idle(k) is exactly k calls of Round(nil) whose inboxes are discarded;
	// k <= 0 is a no-op. Each idled round still counts this vertex as
	// arrived (Stats are those of the k Round(nil) calls), and a message
	// addressed to it in an idled round is charged to its sender and
	// dropped. The runtime keeps the vertex suspended for all k rounds
	// instead of resuming it once per round, so an algorithm that knows it
	// has nothing to send or read for a while should idle.
	Idle(k int)
	// Rand returns this vertex's private deterministic PRNG stream, derived
	// from the run seed (WithSeed) and the vertex identifier. Streams are
	// reproducible across runs and engines and distinct across vertices.
	Rand() *rand.Rand
}

// Stats is the measured cost of a run.
type Stats struct {
	// Rounds is the number of synchronous rounds executed: rounds in which
	// at least one vertex called Round. The implicit final "round" in which
	// every remaining vertex halts is not counted.
	Rounds int `json:"rounds"`
	// Bytes is the total size of all messages sent, including messages
	// dropped because their destination had already halted.
	Bytes int `json:"bytes"`
	// MaxMessageBytes is the size of the largest single message sent.
	MaxMessageBytes int `json:"maxMessageBytes"`
	// Activations is the total number of vertex activations that reached
	// Round: the sum over rounds of the vertices still participating. It is
	// the sequential work measure of a run — a full run costs on the order
	// of n·Rounds activations, while a repair confined to a k-vertex
	// subgraph (package dynamic) costs O(k·Rounds) no matter how large the
	// surrounding graph is. A round a vertex spends in Process.Idle is
	// still one of its activations. Engine-independent, like every Stats
	// field.
	Activations int `json:"activations"`
}

// String renders the stats compactly, e.g.
// "rounds=12 bytes=4096 maxMsg=9B acts=96".
func (s Stats) String() string {
	return fmt.Sprintf("rounds=%d bytes=%d maxMsg=%dB acts=%d", s.Rounds, s.Bytes, s.MaxMessageBytes, s.Activations)
}

// Result carries the per-vertex outputs and the measured cost of a run.
type Result[T any] struct {
	// Outputs[v] is the return value of the algorithm at vertex index v
	// (graph indexing, not identifiers).
	Outputs []T
	// Stats is the cost accounting of the run.
	Stats Stats
}

// Engine selects the scheduler that executes a run. All engines implement
// the same synchronous contract and produce identical Outputs and Stats for
// a fixed seed; see the package documentation.
type Engine int

const (
	// Goroutines runs the vertex coroutines on WithShards concurrent shards
	// (GOMAXPROCS by default), one worker goroutine per shard, with a
	// barrier per round: the concurrent LOCAL-model execution. Default. It
	// runs on the same scheduler as Sharded; the two names are
	// interchangeable.
	Goroutines Engine = iota
	// Lockstep runs the scheduler with exactly one shard on the caller's
	// goroutine: vertices resume sequentially (in vertex order) within each
	// round, with no concurrency.
	Lockstep
	// Sharded runs the scheduler on WithShards contiguous vertex shards
	// (GOMAXPROCS by default): per-shard resume loops, sender-side
	// per-shard accounting merged in index order, and destination-sharded
	// parallel delivery. Identical to Goroutines.
	Sharded
	// Compiled executes algorithms that carry a CompiledAlgo form (see Algo
	// and RunAlgo) as tight whole-graph passes over the flat CSR arrays, and
	// plain per-vertex functions as one-shot Lockstep runs. Outputs and
	// Stats are byte-identical to the other engines; only wall-clock and
	// memory change.
	Compiled
)

// String implements fmt.Stringer for diagnostics.
func (e Engine) String() string {
	switch e {
	case Goroutines:
		return "goroutines"
	case Lockstep:
		return "lockstep"
	case Sharded:
		return "sharded"
	case Compiled:
		return "compiled"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// ParseEngine parses an engine name as printed by Engine.String — the
// accepted values of the CLIs' -engine flags.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "goroutines":
		return Goroutines, nil
	case "lockstep":
		return Lockstep, nil
	case "sharded":
		return Sharded, nil
	case "compiled":
		return Compiled, nil
	default:
		return 0, fmt.Errorf("dist: unknown engine %q (want goroutines, lockstep, sharded, or compiled)", s)
	}
}

// DefaultMaxRounds is the round cap applied when WithMaxRounds is not given:
// generous enough for every algorithm in this repository (the paper's bounds
// are polylogarithmic or O(Δ)-ish), small enough to turn an accidentally
// non-terminating algorithm into an error instead of a hang.
const DefaultMaxRounds = 1 << 20

type config struct {
	seed      int64
	engine    Engine
	maxRounds int
	shards    int
}

// Option configures a run.
type Option func(*config)

// parseOptions applies opts over the defaults (Goroutines, seed 0,
// DefaultMaxRounds).
func parseOptions(opts []Option) config {
	cfg := config{engine: Goroutines, maxRounds: DefaultMaxRounds}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithSeed fixes the seed from which all per-vertex PRNG streams are
// derived. The default seed is 0; two runs with the same graph, algorithm,
// seed and any engine produce identical Outputs and Stats.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// WithEngine selects the scheduler (Goroutines by default).
func WithEngine(e Engine) Option {
	return func(c *config) { c.engine = e }
}

// WithMaxRounds caps the number of rounds a run may execute; exceeding the
// cap aborts the run with an error. r <= 0 removes the cap entirely. The
// default cap is DefaultMaxRounds.
func WithMaxRounds(r int) Option {
	return func(c *config) { c.maxRounds = r }
}

// MaxShards caps the shard count of a run. Multi-shard delivery keeps one
// message queue per (source, destination) shard pair and starts one worker
// goroutine per shard for each release and drain phase, so the count bounds
// that state at MaxShards² queues regardless of what a caller asks for.
const MaxShards = 64

// WithShards fixes the shard count of the Goroutines and Sharded engines
// (clamped to the vertex count and to MaxShards; n <= 0 restores the
// GOMAXPROCS default). Outputs and Stats do not depend on the shard count —
// the knob exists for tuning and for tests that want to exercise
// multi-shard interleavings on any machine. Lockstep always runs one shard,
// and Compiled ignores the knob.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// splitmix64 is the finalizer of the splitmix64 generator; used to derive
// per-vertex seeds that are well spread even for consecutive identifiers.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// VertexSeed derives the PRNG seed of the vertex with the given identifier
// from a run seed. It is exported for virtual networks that implement
// Process themselves (package lgsim) so their per-vertex streams use the
// same derivation as the native runtime.
func VertexSeed(runSeed int64, id int) int64 {
	return int64(splitmix64(splitmix64(uint64(runSeed)) ^ splitmix64(uint64(id))))
}

// SeedOf returns the run seed the given options select (0, the WithSeed
// default, if none). Virtual networks that layer on top of Run (package
// lgsim) use it to seed their virtual vertices consistently with the
// options they forward.
func SeedOf(opts ...Option) int64 {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c.seed
}
