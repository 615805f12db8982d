package testutil

import (
	"encoding/binary"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

// recorder wraps a Process and appends every outbox it sends to its
// vertex's transcript: per round, the outbox length, then per port the
// message length plus one (0 = no message) and the message bytes.
type recorder struct {
	dist.Process
	log *[]byte
}

func (r recorder) Round(out [][]byte) [][]byte {
	*r.log = binary.AppendUvarint(*r.log, uint64(len(out)))
	for _, msg := range out {
		if msg == nil {
			*r.log = append(*r.log, 0)
			continue
		}
		*r.log = binary.AppendUvarint(*r.log, uint64(len(msg))+1)
		*r.log = append(*r.log, msg...)
	}
	return r.Process.Round(out)
}

func (r recorder) Broadcast(msg []byte) [][]byte {
	if msg == nil {
		return r.Round(nil)
	}
	out := make([][]byte, r.Deg())
	for i := range out {
		out[i] = msg
	}
	return r.Round(out)
}

// Idle logs k empty rounds, exactly what k calls of Round(nil) log, so a
// transcript does not depend on whether the algorithm idles or loops.
func (r recorder) Idle(k int) {
	for i := 0; i < k; i++ {
		*r.log = binary.AppendUvarint(*r.log, 0)
	}
	r.Process.Idle(k)
}

// transcripts runs body at every vertex of g under Lockstep with each
// vertex's Process wrapped in a recorder, and returns the per-vertex
// transcripts of every message sent, indexed by identifier − 1 (g must use
// the default identifiers 1..n). Two runs of a deterministic algorithm give
// byte-identical transcripts.
func transcripts[T any](t *testing.T, g *graph.Graph, body func(dist.Process) T) [][]byte {
	t.Helper()
	logs := make([][]byte, g.N())
	_, err := dist.Run(g, func(v dist.Process) T {
		return body(recorder{Process: v, log: &logs[v.ID()-1]})
	}, dist.WithEngine(dist.Lockstep))
	if err != nil {
		t.Fatal(err)
	}
	return logs
}

// CheckTranscriptsStable runs body runs+1 times on g and fails t unless
// every run sends byte-identical messages: contents, not just lengths.
func CheckTranscriptsStable[T any](t *testing.T, g *graph.Graph, runs int, body func(dist.Process) T) {
	t.Helper()
	want := transcripts(t, g, body)
	for run := 0; run < runs; run++ {
		got := transcripts(t, g, body)
		for v := range want {
			if string(got[v]) != string(want[v]) {
				t.Fatalf("run %d: vertex id %d sent a different transcript (%d vs %d bytes)",
					run, v+1, len(got[v]), len(want[v]))
			}
		}
	}
}
