package dist

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// loopIdle is the reference form of Idle: k calls of Round(nil) whose
// inboxes are discarded.
func loopIdle(v Process, k int) {
	for ; k > 0; k-- {
		v.Round(nil)
	}
}

// idleBody is an irregular algorithm built around idle stretches of
// k(ID, phase) ∈ {−1..4} rounds — Idle(0) and Idle(−1) included — written
// with the given idle form. Every message carries its sender's round number
// and a receiver panics on one from another round, so a message sent to an
// idler that surfaced after it woke would fail the run. Vertices halt after
// different numbers of phases, some straight out of an idle stretch.
func idleBody(idle func(Process, int)) func(Process) []int {
	return func(v Process) []int {
		id, deg := v.ID(), v.Deg()
		round, sum := 0, id
		var hist []int
		for phase := 0; phase < 1+id%4; phase++ {
			out := make([][]byte, deg)
			for p := range out {
				if (id+p+phase)%3 != 0 {
					out[p] = wire.EncodeInts(round, sum)
				}
			}
			in := v.Round(out)
			for p, msg := range in {
				if msg == nil {
					continue
				}
				vals, err := wire.DecodeInts(msg, 2)
				if err != nil {
					panic(err)
				}
				if vals[0] != round {
					panic(fmt.Sprintf("round %d: message from round %d surfaced", round, vals[0]))
				}
				sum += (p + 1) * vals[1] % 1009
			}
			round++
			k := (id*7+phase*3)%6 - 1
			idle(v, k)
			round += max(k, 0)
			hist = append(hist, sum)
		}
		return hist
	}
}

// idleVariants runs body on every engine and shard count, Compiled (a
// one-shot Lockstep run) included.
func idleVariants(g *graph.Graph, body func(Process) []int, opts ...Option) map[string]func() (*Result[[]int], error) {
	run := func(extra ...Option) func() (*Result[[]int], error) {
		return func() (*Result[[]int], error) { return Run(g, body, append(extra, opts...)...) }
	}
	return map[string]func() (*Result[[]int], error){
		"goroutines": run(WithEngine(Goroutines)),
		"lockstep":   run(WithEngine(Lockstep)),
		"sharded-1":  run(WithEngine(Sharded), WithShards(1)),
		"sharded-2":  run(WithEngine(Sharded), WithShards(2)),
		"sharded-8":  run(WithEngine(Sharded), WithShards(8)),
		"compiled": func() (*Result[[]int], error) {
			return RunAlgo(g, Algo[[]int]{Vertex: body},
				append([]Option{WithEngine(Compiled)}, opts...)...)
		},
	}
}

// TestIdleMatchesRoundNil pins Idle's contract: a body that idles gives the
// same Outputs and Stats as the same body looping over Round(nil), on every
// engine and shard count; messages sent to an idler never surface after it
// wakes; Idle(k <= 0) is a no-op; and a round cap tripping mid-idle reports
// the same error (whose text carries the Stats).
func TestIdleMatchesRoundNil(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"gnm":      graph.GNM(60, 240, 5),
		"complete": graph.Complete(12),
		"star":     graph.Star(20),
	} {
		want, err := Run(g, idleBody(loopIdle), WithEngine(Lockstep))
		if err != nil {
			t.Fatalf("%s: reference run: %v", name, err)
		}
		for vname, run := range idleVariants(g, idleBody(Process.Idle)) {
			got, err := run()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, vname, err)
			}
			if !reflect.DeepEqual(got.Outputs, want.Outputs) || got.Stats != want.Stats {
				t.Fatalf("%s/%s: idle run %v diverged from Round(nil) run %v", name, vname, got.Stats, want.Stats)
			}
		}
	}

	g := graph.GNM(40, 120, 2)
	capped := func(idle func(Process, int)) func(Process) []int {
		return func(v Process) []int {
			v.Broadcast(wire.EncodeInts(v.ID()))
			idle(v, 3+v.ID()%4)
			for {
				v.Round(nil)
			}
		}
	}
	_, wantErr := Run(g, capped(loopIdle), WithEngine(Lockstep), WithMaxRounds(3))
	if wantErr == nil {
		t.Fatal("reference run: want round-cap error")
	}
	for vname, run := range idleVariants(g, capped(Process.Idle), WithMaxRounds(3)) {
		if _, err := run(); err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: err = %v, want %v", vname, err, wantErr)
		}
	}
}
