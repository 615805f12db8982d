package dist

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// TestCompiledFallsBackToLockstep: a plain per-vertex function (no compiled
// form) under the Compiled engine runs as Lockstep — same outputs, same
// stats, no error.
func TestCompiledFallsBackToLockstep(t *testing.T) {
	g := graph.GNM(60, 200, 4)
	want, err := Run(g, chatty, WithSeed(1), WithEngine(Lockstep))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(g, chatty, WithSeed(1), WithEngine(Compiled))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) || got.Stats != want.Stats {
		t.Fatalf("compiled fallback diverged from lockstep: %v vs %v", got.Stats, want.Stats)
	}
	// Same through RunAlgo with a nil Compiled field.
	got2, err := RunAlgo(g, Algo[[]int]{Vertex: chatty}, WithSeed(1), WithEngine(Compiled))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2.Outputs, want.Outputs) || got2.Stats != want.Stats {
		t.Fatalf("RunAlgo fallback diverged from lockstep")
	}
}

// TestRunAlgoRequiresVertexForm: a bundle with neither form the selected
// engine can execute is an error, not a panic.
func TestRunAlgoRequiresVertexForm(t *testing.T) {
	if _, err := RunAlgo(graph.Path(2), Algo[int]{}); err == nil || !strings.Contains(err.Error(), "Vertex") {
		t.Fatalf("err = %v, want missing-Vertex error", err)
	}
	p := NewPool[int](graph.Path(2), 1)
	if _, err := p.RunAlgo(Algo[int]{}); err == nil || !strings.Contains(err.Error(), "Vertex") {
		t.Fatalf("pool err = %v, want missing-Vertex error", err)
	}
}

// TestCompiledPanicPropagates: a panic inside a coroutine vertex aborts the
// compiled run with the scheduler's error text, and user defers still run.
func TestCompiledPanicPropagates(t *testing.T) {
	g := graph.Cycle(6)
	defersRan := 0
	algo := func(v Process) int {
		defer func() { defersRan++ }()
		if v.ID() == 4 {
			panic("kaboom")
		}
		for {
			v.Round(nil)
		}
	}
	_, err := RunAlgo(g, Algo[int]{Vertex: algo}, WithEngine(Compiled))
	if err == nil || !strings.Contains(err.Error(), "vertex id 4 panicked: kaboom") {
		t.Fatalf("err = %v, want vertex panic", err)
	}
	// Lockstep release order: vertices 1..3 yielded (and unwind on abort),
	// vertex 4 panicked mid-release, and vertices 5..6 were never resumed, so
	// stopping their coroutines never starts them.
	if defersRan != 4 {
		t.Fatalf("defersRan = %d, want 4 (released coroutines unwound, unreleased never started)", defersRan)
	}
}

// TestCompiledAbortWithRoundInDefer: user defers that call Round — both on
// the panicking vertex (its defer yields mid-unwind before the panic
// surfaces) and on aborted vertices (their defers hit the exiting guard) —
// behave exactly as under the schedulers.
func TestCompiledAbortWithRoundInDefer(t *testing.T) {
	g := graph.Complete(8)
	algo := func(v Process) int {
		defer func() {
			for i := 0; i < 3; i++ {
				v.Round(nil) // runs during the unwind on aborted vertices
			}
		}()
		if v.ID() == 3 {
			panic("abort me")
		}
		for {
			v.Round(nil)
		}
	}
	_, err := RunAlgo(g, Algo[int]{Vertex: algo}, WithEngine(Compiled))
	if err == nil || !strings.Contains(err.Error(), "abort me") {
		t.Fatalf("err = %v, want original panic", err)
	}
}

// TestCompiledWrongOutboxLength: the one-shot run rejects a wrong-length
// outbox with the scheduler's message.
func TestCompiledWrongOutboxLength(t *testing.T) {
	algo := func(v Process) int {
		v.Round(make([][]byte, v.Deg()+1))
		return 0
	}
	_, err := RunAlgo(graph.Path(3), Algo[int]{Vertex: algo}, WithEngine(Compiled))
	if err == nil || !strings.Contains(err.Error(), "ports") {
		t.Fatalf("err = %v, want wrong-length panic error", err)
	}
}

// TestCompiledRoundCap: the one-shot compiled run trips the round cap with
// the same error text and partial stats as the scheduled engines.
func TestCompiledRoundCap(t *testing.T) {
	g := graph.Cycle(5)
	forever := func(v Process) int {
		for {
			v.Broadcast([]byte{1})
		}
	}
	_, werr := Run(g, forever, WithEngine(Lockstep), WithMaxRounds(17))
	_, gerr := RunAlgo(g, Algo[int]{Vertex: forever},
		WithEngine(Compiled), WithMaxRounds(17))
	if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
		t.Fatalf("cap errors differ:\ncompiled: %v\nlockstep: %v", gerr, werr)
	}
	if !strings.Contains(gerr.Error(), "round cap 17") {
		t.Fatalf("err = %v, want round cap 17", gerr)
	}
}

// TestCompiledEcho: forwarding the inbox slice back as the outbox (the echo
// pattern) works in the one-shot compiled run exactly as under the
// schedulers.
func TestCompiledEcho(t *testing.T) {
	g := graph.Path(3)
	algo := func(v Process) int {
		in := v.Broadcast([]byte{byte(v.ID())})
		in = v.Round(in) // echo: forward what was received
		sum := 0
		for _, b := range in {
			if b != nil {
				sum += int(b[0])
			}
		}
		return sum
	}
	want, err := Run(g, algo, WithEngine(Lockstep))
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunAlgo(g, Algo[int]{Vertex: algo}, WithEngine(Compiled))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) || got.Stats != want.Stats {
		t.Fatalf("echo diverged: %v/%v vs %v/%v", got.Outputs, got.Stats, want.Outputs, want.Stats)
	}
}

// TestCompiledRandStreams: Process.Rand in the one-shot compiled run derives
// the same per-vertex streams as the schedulers.
func TestCompiledRandStreams(t *testing.T) {
	g := graph.Star(9)
	algo := func(v Process) int { return v.Rand().Intn(1 << 30) }
	want, err := Run(g, algo, WithSeed(42), WithEngine(Goroutines))
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunAlgo(g, Algo[int]{Vertex: algo},
		WithSeed(42), WithEngine(Compiled))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Fatalf("rand streams diverged: %v vs %v", got.Outputs, want.Outputs)
	}
}

// TestCompiledEmptyAndIsolated: empty graphs short-circuit; isolated
// vertices run their instances.
func TestCompiledEmptyAndIsolated(t *testing.T) {
	algo := func(v Process) int { return v.ID() }
	a := Algo[int]{Vertex: algo}
	empty, err := RunAlgo(graph.NewBuilder(0).Build(), a, WithEngine(Compiled))
	if err != nil || len(empty.Outputs) != 0 || empty.Stats != (Stats{}) {
		t.Fatalf("empty graph: %v %v %v", empty.Outputs, empty.Stats, err)
	}
	iso, err := RunAlgo(graph.NewBuilder(3).Build(), a, WithEngine(Compiled))
	if err != nil || !reflect.DeepEqual(iso.Outputs, []int{1, 2, 3}) {
		t.Fatalf("isolated: %v %v", iso.Outputs, err)
	}
}

// TestPoolRunAlgo: Pool.RunAlgo matches RunAlgo under Compiled, run after
// run.
func TestPoolRunAlgo(t *testing.T) {
	g := graph.GNM(80, 260, 5)
	p := NewPool[[]int](g, 2)
	defer p.Close()
	want := runChatty(t, g, WithSeed(7), WithEngine(Compiled))
	for i := 0; i < 4; i++ {
		got, err := p.RunAlgo(chattyAlgo(), WithSeed(7), WithEngine(Compiled))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Outputs, want.Outputs) || got.Stats != want.Stats {
			t.Fatalf("pooled compiled run %d diverged", i)
		}
	}
}

// TestTallyAccounting: Tally reproduces the scheduler's accounting order —
// a capped round's activations are counted, its messages are not.
func TestTallyAccounting(t *testing.T) {
	tal := (CompiledEnv{MaxRounds: 2}).NewTally()
	if err := tal.StartRound(3); err != nil {
		t.Fatal(err)
	}
	tal.Message(5)
	tal.Messages(2, 7)
	if err := tal.StartRound(3); err != nil {
		t.Fatal(err)
	}
	tal.Message(1)
	err := tal.StartRound(2)
	if err == nil || !strings.Contains(err.Error(), "round cap 2 exceeded") {
		t.Fatalf("err = %v, want round cap", err)
	}
	want := Stats{Rounds: 3, Bytes: 5 + 14 + 1, MaxMessageBytes: 7, Activations: 8}
	if tal.Stats != want {
		t.Fatalf("tally %v, want %v", tal.Stats, want)
	}
	tal.Messages(0, 99) // no copies: must not touch MaxMessageBytes
	if tal.Stats != want {
		t.Fatalf("Messages(0, ...) mutated tally: %v", tal.Stats)
	}
}

// TestCompiledMessageRules: per-port selective sends (including sends to
// already-halted destinations) account and deliver identically in the
// one-shot compiled run. The early-halting vertex makes the drop path
// load-bearing.
func TestCompiledMessageRules(t *testing.T) {
	algo := func(v Process) []int {
		if v.ID()%3 == 0 {
			return nil // halts immediately: all messages to it drop
		}
		deg := v.Deg()
		var history []int
		for r := 1; r <= 3; r++ {
			out := make([][]byte, deg)
			for p := 0; p < deg; p++ {
				if (v.ID()+p+r)%2 == 0 {
					out[p] = wire.EncodeInts(v.ID()*100 + r)
				}
			}
			in := v.Round(out)
			sum := 0
			for p := 0; p < deg; p++ {
				if in[p] != nil {
					vals, err := wire.DecodeInts(in[p], 1)
					if err != nil {
						panic(err)
					}
					sum += vals[0]
				}
			}
			history = append(history, sum)
		}
		return history
	}
	for _, g := range []*graph.Graph{graph.Complete(9), graph.Star(12), graph.GNM(40, 120, 2)} {
		want, err := Run(g, algo, WithEngine(Goroutines))
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunAlgo(g, Algo[[]int]{Vertex: algo}, WithEngine(Compiled))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Outputs, want.Outputs) || got.Stats != want.Stats {
			t.Fatalf("message rules diverged: %v vs %v", got.Stats, want.Stats)
		}
	}
}

// TestPortMaskOnGraphSlots: a fresh PortMask reads the graph's own slot
// offsets (no per-run copy), with every slot in and Deg the graph's degrees.
func TestPortMaskOnGraphSlots(t *testing.T) {
	g := graph.GNM(30, 70, 2)
	off, rev := g.Slots()
	pm := NewPortMask(g)
	if &pm.Off[0] != &off[0] || len(pm.Off) != len(off) {
		t.Fatal("PortMask.Off is not the graph's offset table")
	}
	if len(pm.In) != len(rev) || slices.Contains(pm.In, false) {
		t.Fatalf("PortMask.In has %d slots (want %d), all in", len(pm.In), len(rev))
	}
	if !slices.Equal(pm.Deg, g.Degrees()) {
		t.Fatalf("PortMask.Deg = %v, want %v", pm.Deg, g.Degrees())
	}
}
