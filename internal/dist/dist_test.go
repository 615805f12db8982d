package dist

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// chatty is a deliberately irregular algorithm: vertices use their PRNG,
// exchange messages of varying sizes, and halt after different numbers of
// rounds, exercising the drop-to-halted path. It is fully deterministic
// given the run seed.
func chatty(v Process) []int {
	rng := v.Rand()
	deg := v.Deg()
	budget := 1 + rng.Intn(4) // 1..4 rounds, varies per vertex
	sum := rng.Intn(1000)
	history := []int{sum}
	for r := 0; r < budget; r++ {
		out := make([][]byte, deg)
		for p := 0; p < deg; p++ {
			if (v.ID()+v.NeighborID(p)+r)%3 != 0 {
				out[p] = wire.EncodeInts(sum, r, v.ID())
			}
		}
		in := v.Round(out)
		for p := 0; p < deg; p++ {
			if in[p] == nil {
				continue
			}
			vals, err := wire.DecodeInts(in[p], 3)
			if err != nil {
				panic(err)
			}
			sum += vals[0] + vals[1]*vals[2]
		}
		history = append(history, sum)
	}
	return history
}

// Chatty exports chatty to the external test package (FuzzCompiledAgree).
var Chatty = chatty

// chattyAlgo bundles chatty without a flat pass, so the Compiled engine runs
// it as a one-shot Lockstep run while the other engines schedule it on their
// shards — the four-engine agreement tests all route through it.
func chattyAlgo() Algo[[]int] {
	return Algo[[]int]{Vertex: chatty}
}

func runChatty(t *testing.T, g *graph.Graph, opts ...Option) *Result[[]int] {
	t.Helper()
	res, err := RunAlgo(g, chattyAlgo(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEnginesAgree is the central determinism contract: for any fixed seed,
// all three engines produce byte-identical Outputs and Stats, across
// repeated runs and regardless of the Sharded engine's shard count.
func TestEnginesAgree(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"cycle":     graph.Cycle(50),
		"complete":  graph.Complete(24),
		"gnm":       graph.GNM(200, 900, 7),
		"linegraph": graph.GNM(40, 160, 3).LineGraph(),
		"star":      graph.Star(33),
		"shuffled":  graph.ShuffledIDs(graph.GNM(100, 300, 1), 2),
	}
	for name, g := range graphs {
		for seed := int64(0); seed < 3; seed++ {
			goro := runChatty(t, g, WithSeed(seed), WithEngine(Goroutines))
			variants := map[string]*Result[[]int]{
				"lockstep":  runChatty(t, g, WithSeed(seed), WithEngine(Lockstep)),
				"sharded":   runChatty(t, g, WithSeed(seed), WithEngine(Sharded)),
				"sharded-1": runChatty(t, g, WithSeed(seed), WithEngine(Sharded), WithShards(1)),
				"sharded-5": runChatty(t, g, WithSeed(seed), WithEngine(Sharded), WithShards(5)),
				"compiled":  runChatty(t, g, WithSeed(seed), WithEngine(Compiled)),
				"again":     runChatty(t, g, WithSeed(seed), WithEngine(Goroutines)),
			}
			for vname, res := range variants {
				if !reflect.DeepEqual(goro.Outputs, res.Outputs) {
					t.Fatalf("%s seed %d: outputs differ: goroutines vs %s", name, seed, vname)
				}
				if goro.Stats != res.Stats {
					t.Fatalf("%s seed %d: stats differ: goroutines %v vs %s %v",
						name, seed, goro.Stats, vname, res.Stats)
				}
			}
		}
	}
}

// TestEchoForwardAcrossEngines pins the echo pattern — passing the slice
// Round returned straight back as the next outbox — which aliases the
// pooled inbox: the runtime must snapshot it so delivery's slot recycling
// cannot eat the staged messages, and all engines must agree byte for byte.
func TestEchoForwardAcrossEngines(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Cycle(6), graph.Complete(9), graph.GNM(40, 120, 5)} {
		var want *Result[int]
		for _, opts := range [][]Option{
			{WithEngine(Goroutines)},
			{WithEngine(Lockstep)},
			{WithEngine(Sharded), WithShards(1)},
			{WithEngine(Sharded), WithShards(3)},
		} {
			res, err := Run(g, func(v Process) int {
				in := v.Broadcast([]byte{7})
				in = v.Round(in) // forward everything we just received
				got := 0
				for _, m := range in {
					if m != nil {
						got++
					}
				}
				return got
			}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = res
				// Every vertex echoes on all ports, so round 2 delivers a
				// full inbox again and doubles the byte count.
				if res.Stats.Rounds != 2 || res.Stats.Bytes != 2*2*g.M() {
					t.Fatalf("%v: stats %v, want rounds=2 bytes=%d", g, res.Stats, 4*g.M())
				}
				for v, got := range res.Outputs {
					if got != g.Deg(v) {
						t.Fatalf("%v vertex %d: echoed %d messages, want Deg=%d", g, v, got, g.Deg(v))
					}
				}
				continue
			}
			if !reflect.DeepEqual(want.Outputs, res.Outputs) || want.Stats != res.Stats {
				t.Fatalf("%v opts %d: echo run diverged across engines", g, len(opts))
			}
		}
	}
}

// TestShardedIsSequentialWithinShard: with a single shard — Lockstep, or
// Sharded with WithShards(1) — the scheduler is globally sequential in index
// order, so unsynchronized writes to shared state are safe (and -race
// agrees). The counter checks mutual exclusion via max concurrency.
func TestShardedIsSequentialWithinShard(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"lockstep", []Option{WithEngine(Lockstep)}},
		{"sharded-1", []Option{WithEngine(Sharded), WithShards(1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.Complete(10)
			running := 0
			maxRunning := 0
			_, err := Run(g, func(v Process) int {
				for r := 0; r < 3; r++ {
					running++
					if running > maxRunning {
						maxRunning = running
					}
					running--
					v.Round(nil)
				}
				return 0
			}, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if maxRunning != 1 {
				t.Fatalf("max concurrent vertices = %d, want 1", maxRunning)
			}
		})
	}
}

// TestShardedUnderRace drives the concurrent engines on a dense graph with
// real cross-shard message traffic; under -race this validates the
// concurrent shard workers and the destination-sharded delivery.
func TestShardedUnderRace(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"goroutines", []Option{WithEngine(Goroutines)}},
		{"sharded-7", []Option{WithEngine(Sharded), WithShards(7)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.Complete(40)
			res, err := Run(g, func(v Process) int {
				total := 0
				for r := 0; r < 5; r++ {
					in := v.Broadcast(wire.EncodeInts(v.ID() + r))
					for _, msg := range in {
						vals, err := wire.DecodeInts(msg, 1)
						if err != nil {
							panic(err)
						}
						total += vals[0]
					}
				}
				return total
			}, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			// Every vertex receives the same multiset of broadcasts.
			for v, got := range res.Outputs {
				want := 0
				for u := 0; u < g.N(); u++ {
					if u == v {
						continue
					}
					for r := 0; r < 5; r++ {
						want += g.ID(u) + r
					}
				}
				if got != want {
					t.Fatalf("vertex %d: total %d, want %d", v, got, want)
				}
			}
			if res.Stats.Rounds != 5 {
				t.Fatalf("rounds = %d, want 5", res.Stats.Rounds)
			}
		})
	}
}

// TestShardCountIsBounded: a shard count far above MaxShards is clamped, so
// a run's queue state stays bounded no matter what a caller asks for, and
// the outputs still match the default run. The algorithm allocates almost
// nothing itself, so the budget measures the runtime's own state.
func TestShardCountIsBounded(t *testing.T) {
	g := graph.Cycle(4000)
	algo := func(v Process) int {
		in := v.Broadcast([]byte{byte(v.ID())})
		in = v.Broadcast(in[0])
		return int(in[0][0])
	}
	want, err := Run(g, algo)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := Run(g, algo, WithEngine(Sharded), WithShards(4000))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) || got.Stats != want.Stats {
		t.Fatal("WithShards(4000) run diverged from the default run")
	}
	const budget = 16 << 20
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > budget {
		t.Fatalf("WithShards(4000) allocated %d bytes, budget %d", alloc, budget)
	}
}

// TestRoundSemantics pins the exact accounting on a 3-path: message sizes,
// totals, and the rule that the final all-halt round is not counted.
func TestRoundSemantics(t *testing.T) {
	g := graph.Path(3) // edges 0-1, 1-2
	for _, e := range []Engine{Goroutines, Lockstep, Sharded} {
		res, err := Run(g, func(v Process) int {
			in := v.Broadcast([]byte{1, 2, 3})
			n := 0
			for _, msg := range in {
				if msg != nil {
					n += len(msg)
				}
			}
			return n
		}, WithEngine(e))
		if err != nil {
			t.Fatal(err)
		}
		// Degrees are 1,2,1: four copies of a 3-byte message in round 1.
		if res.Stats.Rounds != 1 || res.Stats.Bytes != 12 || res.Stats.MaxMessageBytes != 3 {
			t.Fatalf("engine %v: stats %v, want rounds=1 bytes=12 maxMsg=3B", e, res.Stats)
		}
		if !reflect.DeepEqual(res.Outputs, []int{3, 6, 3}) {
			t.Fatalf("engine %v: outputs %v", e, res.Outputs)
		}
	}
}

// TestZeroRounds: an algorithm that never communicates costs zero rounds.
func TestZeroRounds(t *testing.T) {
	g := graph.Complete(6)
	res, err := Run(g, func(v Process) int { return v.ID() * v.Deg() })
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != (Stats{}) {
		t.Fatalf("stats = %v, want all zero", res.Stats)
	}
	for v := range res.Outputs {
		if res.Outputs[v] != g.ID(v)*g.Deg(v) {
			t.Fatalf("vertex %d: output %d", v, res.Outputs[v])
		}
	}
}

// TestMessagesToHaltedAreDropped: a vertex that halted must never deliver,
// but the sender's bytes still count.
func TestMessagesToHaltedAreDropped(t *testing.T) {
	g := graph.Path(2)
	for _, e := range []Engine{Goroutines, Lockstep, Sharded} {
		res, err := Run(g, func(v Process) int {
			if v.ID() == 1 {
				return -1 // halts immediately
			}
			in := v.Broadcast([]byte{9, 9})
			if in[0] != nil {
				return 1 // would mean the halted vertex "sent" something
			}
			in = v.Broadcast([]byte{8})
			if in[0] != nil {
				return 2
			}
			return 0
		}, WithEngine(e))
		if err != nil {
			t.Fatal(err)
		}
		if res.Outputs[0] != -1 || res.Outputs[1] != 0 { // id 1 = index 0 halts
			t.Fatalf("engine %v: outputs %v", e, res.Outputs)
		}
		if res.Stats.Rounds != 2 || res.Stats.Bytes != 3 || res.Stats.MaxMessageBytes != 2 {
			t.Fatalf("engine %v: stats %v, want rounds=2 bytes=3 maxMsg=2B", e, res.Stats)
		}
	}
}

// TestPanicPropagates: a vertex panic surfaces as a Run error naming the
// vertex, on both engines, without hanging the other vertices.
func TestPanicPropagates(t *testing.T) {
	g := graph.Cycle(12)
	for _, e := range []Engine{Goroutines, Lockstep, Sharded} {
		_, err := Run(g, func(v Process) int {
			if v.ID() == 7 {
				panic("kaboom at seven")
			}
			for {
				v.Round(nil)
			}
		}, WithEngine(e))
		if err == nil || !strings.Contains(err.Error(), "kaboom at seven") ||
			!strings.Contains(err.Error(), "id 7") {
			t.Fatalf("engine %v: err = %v, want panic from vertex id 7", e, err)
		}
	}
}

// TestAbortWithRoundInDefer: user defers that keep calling Round while an
// aborted run unwinds must not wedge the runtime (the exiting guard in
// park); the original panic is still the one reported.
func TestAbortWithRoundInDefer(t *testing.T) {
	g := graph.Complete(8)
	for _, e := range []Engine{Goroutines, Lockstep, Sharded} {
		_, err := Run(g, func(v Process) int {
			defer func() {
				for i := 0; i < 3; i++ {
					v.Round(nil) // runs during Goexit on aborted vertices
				}
			}()
			if v.ID() == 3 {
				panic("abort me")
			}
			for {
				v.Round(nil)
			}
		}, WithEngine(e))
		if err == nil || !strings.Contains(err.Error(), "abort me") {
			t.Fatalf("engine %v: err = %v, want original panic", e, err)
		}
	}
}

// TestWrongOutboxLength: a non-nil outbox of the wrong length is a caller
// bug reported as an error mentioning the port count.
func TestWrongOutboxLength(t *testing.T) {
	g := graph.Path(4)
	_, err := Run(g, func(v Process) int {
		v.Round(make([][]byte, v.Deg()+1))
		return 0
	})
	if err == nil || !strings.Contains(err.Error(), "ports") {
		t.Fatalf("err = %v, want port-count violation", err)
	}
}

// TestRoundCap: WithMaxRounds turns a non-terminating algorithm into an
// error instead of a hang.
func TestRoundCap(t *testing.T) {
	g := graph.Cycle(5)
	for _, e := range []Engine{Goroutines, Lockstep, Sharded} {
		_, err := Run(g, func(v Process) int {
			for {
				v.Round(nil)
			}
		}, WithEngine(e), WithMaxRounds(17))
		if err == nil || !strings.Contains(err.Error(), "round cap 17") {
			t.Fatalf("engine %v: err = %v, want round-cap error", e, err)
		}
	}
}

// TestRandStreams: per-vertex PRNGs are reproducible, engine-independent,
// and distinct across vertices.
func TestRandStreams(t *testing.T) {
	g := graph.Cycle(16)
	draw := func(e Engine, seed int64) []int {
		res, err := Run(g, func(v Process) int { return v.Rand().Intn(1 << 30) },
			WithEngine(e), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	a := draw(Goroutines, 42)
	b := draw(Lockstep, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("PRNG streams differ across engines")
	}
	if reflect.DeepEqual(a, draw(Goroutines, 43)) {
		t.Fatal("seed change did not move the streams")
	}
	distinct := false
	for i := 1; i < len(a); i++ {
		if a[i] != a[0] {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("vertex streams look identical")
	}
}

// TestIsolatedAndEmpty: degree-0 vertices and the empty graph are fine.
func TestIsolatedAndEmpty(t *testing.T) {
	empty, err := Run(graph.NewBuilder(0).Build(), func(v Process) int { return 1 })
	if err != nil || len(empty.Outputs) != 0 {
		t.Fatalf("empty graph: res=%v err=%v", empty, err)
	}
	b := graph.NewBuilder(3) // one edge + one isolated vertex
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	res, err := Run(b.Build(), func(v Process) int {
		in := v.Broadcast([]byte{5})
		got := 0
		for _, msg := range in {
			if msg != nil {
				got++
			}
		}
		return got
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Outputs, []int{1, 1, 0}) {
		t.Fatalf("outputs %v, want [1 1 0]", res.Outputs)
	}
}

// TestUnknownEngine: nonsense engines are rejected up front.
func TestUnknownEngine(t *testing.T) {
	_, err := Run(graph.Path(2), func(v Process) int { return 0 }, WithEngine(Engine(99)))
	if err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("err = %v, want unknown-engine error", err)
	}
}

// TestBroadcastNilAdvancesRound: Broadcast(nil) is a silent round.
func TestBroadcastNilAdvancesRound(t *testing.T) {
	g := graph.Path(3)
	res, err := Run(g, func(v Process) int {
		v.Broadcast(nil)
		in := v.Broadcast([]byte{byte(v.ID())})
		got := 0
		for _, msg := range in {
			if msg != nil {
				got++
			}
		}
		return got
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Stats.Rounds)
	}
	if !reflect.DeepEqual(res.Outputs, []int{1, 2, 1}) {
		t.Fatalf("outputs %v", res.Outputs)
	}
}
