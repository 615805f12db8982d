package dynamic

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/wal"
)

// liveWithWAL runs a live maintainer whose commits append to a WAL at path,
// exactly as the service wires it. It returns the maintainer and the log.
func liveWithWAL(t testing.TB, base exp.GraphSpec, path string) (*Maintainer, *wal.Log) {
	t.Helper()
	l, err := wal.Create(path, wal.Header{Session: "live", Base: base}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := base.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, Config{Engine: dist.Compiled, OnCommit: func(ev CommitEvent) {
		if err := l.Append(wal.Record{Seq: ev.Seq, Op: ev.Op, Fingerprint: ev.Fingerprint}); err != nil {
			t.Errorf("wal append at seq %d: %v", ev.Seq, err)
		}
	}})
	if err != nil {
		l.Close()
		t.Fatal(err)
	}
	return m, l
}

// TestReplayMatchesLive is the durability contract test: for every stream
// kind, a live session appends its commits to a WAL, and after EVERY prefix
// of the stream, replaying the log into a fresh Maintainer reproduces the
// live session byte-identically — same fingerprint, same shape, same
// Colors(). Determinism makes the log sufficient; the recorded fingerprints
// make each step's equality checkable.
func TestReplayMatchesLive(t *testing.T) {
	streams := []exp.MutationStream{
		{Kind: "mix", Base: exp.GraphSpec{Family: "gnm", N: 32, M: 70, Seed: 2}, Ops: 24, Seed: 5},
		{Kind: "window", Base: exp.GraphSpec{Family: "cycle", N: 26}, Ops: 24, Seed: 7, Window: 10},
		{Kind: "hotspot", Base: exp.GraphSpec{Family: "gnm", N: 36, M: 80, Seed: 8}, Ops: 24, Seed: 9, Hot: 6},
	}
	for _, s := range streams {
		t.Run(s.String(), func(t *testing.T) {
			_, muts, err := s.Generate()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "s.wal")
			live, l := liveWithWAL(t, s.Base, path)
			defer live.Close()
			defer l.Close()
			for i, mut := range muts {
				if _, _, err := live.Apply([]exp.Mutation{mut}); err != nil {
					t.Fatalf("live apply %d: %v", i, err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				hdr, recs, good, err := wal.Scan(data)
				if err != nil {
					t.Fatalf("prefix %d: scan: %v", i+1, err)
				}
				if good != int64(len(data)) {
					t.Fatalf("prefix %d: live log reads torn at %d of %d", i+1, good, len(data))
				}
				if len(recs) != i+1 {
					t.Fatalf("prefix %d: log has %d records", i+1, len(recs))
				}
				replayed, err := Replay(hdr, recs, Config{Engine: dist.Compiled})
				if err != nil {
					t.Fatalf("prefix %d: %v", i+1, err)
				}
				lfp, ln, lm, ld, lc := live.Snapshot()
				rfp, rn, rm, rd, rc := replayed.Snapshot()
				replayed.Close()
				if rfp != lfp || rn != ln || rm != lm || rd != ld {
					t.Fatalf("prefix %d: replayed shape (%x, %d, %d, %d) != live (%x, %d, %d, %d)",
						i+1, rfp[:8], rn, rm, rd, lfp[:8], ln, lm, ld)
				}
				if !reflect.DeepEqual(rc, lc) {
					t.Fatalf("prefix %d: replayed coloring differs from live", i+1)
				}
			}
		})
	}
}

// TestReplayRestoresOnCommit: the hook must stay silent for logged history
// and fire (with continuing seq) for mutations applied after recovery.
func TestReplayRestoresOnCommit(t *testing.T) {
	s := exp.MutationStream{Kind: "mix", Base: exp.GraphSpec{Family: "gnm", N: 24, M: 50, Seed: 3}, Ops: 12, Seed: 11}
	_, muts, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.wal")
	live, l := liveWithWAL(t, s.Base, path)
	if _, _, err := live.Apply(muts); err != nil {
		t.Fatal(err)
	}
	live.Close()
	l.Close()

	log2, hdr, recs, err := wal.Open(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	var events []CommitEvent
	m, err := Replay(hdr, recs, Config{Engine: dist.Compiled, OnCommit: func(ev CommitEvent) {
		events = append(events, ev)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if len(events) != 0 {
		t.Fatalf("OnCommit fired %d times during replay", len(events))
	}
	// A fresh mutation after recovery must fire with the next seq, so the
	// restarted session's stream and log continue without a gap.
	post := exp.Mutation{Op: exp.OpInsert, U: 0, V: 1}
	if _, ok := m.ColorOf(0, 1); ok {
		post = exp.Mutation{Op: exp.OpDelete, U: 0, V: 1}
	}
	if _, _, err := m.Apply([]exp.Mutation{post}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Seq != int64(len(recs))+1 {
		t.Fatalf("post-recovery commit events = %+v, want one with seq %d", events, len(recs)+1)
	}
}

// TestReplayRejectsFingerprintMismatch: a log whose recorded fingerprint
// disagrees with the recomputation must fail replay — the proof obligation
// has teeth.
func TestReplayRejectsFingerprintMismatch(t *testing.T) {
	s := exp.MutationStream{Kind: "mix", Base: exp.GraphSpec{Family: "gnm", N: 24, M: 50, Seed: 3}, Ops: 6, Seed: 11}
	_, muts, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.wal")
	live, l := liveWithWAL(t, s.Base, path)
	if _, _, err := live.Apply(muts); err != nil {
		t.Fatal(err)
	}
	live.Close()
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, recs, _, err := wal.Scan(data)
	if err != nil {
		t.Fatal(err)
	}
	recs[3].Fingerprint[0] ^= 0xff
	if _, err := Replay(hdr, recs, Config{Engine: dist.Compiled}); err == nil {
		t.Fatal("replay of a fingerprint-tampered log succeeded")
	}
}

// BenchmarkWALReplay measures session recovery: open a WAL of 200 committed
// mutations and rebuild the maintainer (initial canonical run + incremental
// re-application, fingerprint-checked per record). recovery-ns is the
// per-recovery wall time; BENCH_runtime.json records it, and benchcmp gates
// the row's ns/op.
func BenchmarkWALReplay(b *testing.B) {
	s := exp.MutationStream{Kind: "mix", Base: exp.GraphSpec{Family: "gnm", N: 96, M: 300, Seed: 4}, Ops: 200, Seed: 13}
	_, muts, err := s.Generate()
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.wal")
	live, l := liveWithWAL(b, s.Base, path)
	if _, _, err := live.Apply(muts); err != nil {
		b.Fatal(err)
	}
	live.Close()
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hdr, recs, _, err := wal.Scan(data)
		if err != nil {
			b.Fatal(err)
		}
		m, err := Replay(hdr, recs, Config{Engine: dist.Compiled})
		if err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "recovery-ns")
	b.ReportMetric(float64(len(muts))*float64(b.N)/b.Elapsed().Seconds(), "replay-muts/s")
}
