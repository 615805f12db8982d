package panconesi

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// multiClassRule assigns each edge to one of classes classes by an
// endpoint-symmetric rule, so both endpoints agree.
func multiClassRule(v dist.Process, classes int) []int {
	classOf := make([]int, v.Deg())
	for p := range classOf {
		classOf[p] = (v.ID()+v.NeighborID(p))%classes + 1
	}
	return classOf
}

// outputsDigest hashes per-vertex port colorings in vertex order.
func outputsDigest(outs [][]int) string {
	h := sha256.New()
	var buf []byte
	for _, ports := range outs {
		buf = binary.AppendUvarint(buf[:0], uint64(len(ports)))
		for _, c := range ports {
			buf = binary.AppendVarint(buf, int64(c))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestLeafStatsPinned pins the leaf's outputs and its full cost accounting
// (rounds, activations, bytes, largest message). The byte counts are the
// CONGEST cost of the algorithm: a rewrite of the leaf's internals must not
// move any of them.
func TestLeafStatsPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		run    func() (*dist.Result[[]int], error)
		digest string
		stats  dist.Stats
	}{
		{
			name: "EdgeColoring/regular(48,4)",
			run: func() (*dist.Result[[]int], error) {
				return EdgeColoring(graph.RandomRegular(48, 4, 2))
			},
			digest: "21faa84c1c22e314",
			stats:  dist.Stats{Rounds: 34, Bytes: 2239, MaxMessageBytes: 4, Activations: 1632},
		},
		{
			// The flat pass must land on the per-vertex form's figures.
			name: "EdgeColorAlgo/compiled/regular(48,4)",
			run: func() (*dist.Result[[]int], error) {
				g := graph.RandomRegular(48, 4, 2)
				return dist.RunAlgo(g, EdgeColorAlgo(g.MaxDegree()), dist.WithEngine(dist.Compiled))
			},
			digest: "21faa84c1c22e314",
			stats:  dist.Stats{Rounds: 34, Bytes: 2239, MaxMessageBytes: 4, Activations: 1632},
		},
		{
			name: "EdgeColorMulti/4-class/gnm(64,192)",
			run: func() (*dist.Result[[]int], error) {
				g := graph.GNM(64, 192, 1)
				degBound := g.MaxDegree()
				return dist.Run(g, func(v dist.Process) []int {
					return EdgeColorMulti(v, multiClassRule(v, 4), degBound)
				})
			},
			digest: "f060a3fdac738d6f",
			stats:  dist.Stats{Rounds: 88, Bytes: 4306, MaxMessageBytes: 5, Activations: 5632},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if d := outputsDigest(res.Outputs); d != tc.digest {
				t.Errorf("outputs digest %s, want %s", d, tc.digest)
			}
			if res.Stats != tc.stats {
				t.Errorf("stats %+v, want %+v", res.Stats, tc.stats)
			}
		})
	}
}

// TestMessagesDeterministic: message contents, not just their lengths, are
// a pure function of the graph — repeated runs send byte-identical
// transcripts.
func TestMessagesDeterministic(t *testing.T) {
	g := graph.RandomRegular(48, 4, 2)
	delta := g.MaxDegree()
	testutil.CheckTranscriptsStable(t, g, 3, func(v dist.Process) []int {
		return EdgeColorStep(v, nil, delta)
	})
}

// TestLeafAllocs is the allocation budget of one run of the per-vertex form
// on regular(48,4): bundled without its flat pass, the Compiled engine runs
// it as a one-shot Lockstep run. The leaf of edge/be's deeper plans and
// fewcolors' base still run this way.
func TestLeafAllocs(t *testing.T) {
	const leafAllocBudget = 2700
	g := graph.RandomRegular(48, 4, 2)
	delta := g.MaxDegree()
	algo := dist.Algo[[]int]{Vertex: func(v dist.Process) []int {
		return EdgeColorStep(v, nil, delta)
	}}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := dist.RunAlgo(g, algo, dist.WithEngine(dist.Compiled)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > leafAllocBudget {
		t.Fatalf("leaf run allocates %.0f allocs/run, budget %d", allocs, leafAllocBudget)
	}
	t.Logf("leaf run: %.0f allocs/run (budget %d)", allocs, leafAllocBudget)
}

// TestLeafCompiledAllocs is the allocation budget of one run of the flat
// pass (EdgeColorAlgo under the Compiled engine) on regular(48,4): a fixed
// set of whole-graph arrays, not per-vertex state.
func TestLeafCompiledAllocs(t *testing.T) {
	const flatAllocBudget = 30
	g := graph.RandomRegular(48, 4, 2)
	algo := EdgeColorAlgo(g.MaxDegree())
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := dist.RunAlgo(g, algo, dist.WithEngine(dist.Compiled)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > flatAllocBudget {
		t.Fatalf("flat pass allocates %.0f allocs/run, budget %d", allocs, flatAllocBudget)
	}
	t.Logf("flat pass: %.0f allocs/run (budget %d)", allocs, flatAllocBudget)
}

// TestOutOfPalettePanics: a reported color outside {1..2·degBound−1} (or a
// truncated used set) stops the vertex with a clear panic instead of an
// index out of range.
func TestOutOfPalettePanics(t *testing.T) {
	st := leaf{width: 6, childUsed: make([]bool, 6)}
	for _, tc := range []struct {
		name, want string
		msg        []byte
	}{
		{"too large", "color 6 outside the palette {1..5}", new(wire.Writer).Ints([]int{2, 6}).Bytes()},
		{"zero", "color 0 outside the palette {1..5}", new(wire.Writer).Ints([]int{0}).Bytes()},
		{"truncated", "bad used-set message", []byte{3, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if s, _ := r.(string); !strings.Contains(s, tc.want) {
					t.Fatalf("panic %v, want one containing %q", r, tc.want)
				}
			}()
			st.firstFree(make([]bool, st.width), tc.msg)
		})
	}
}

// resumeCounter wraps a Process and counts, per vertex, the rounds it spends
// (Round and Broadcast calls plus the k of each Idle) and the calls that
// suspend it, each of which costs one coroutine resume.
type resumeCounter struct {
	dist.Process
	rounds, calls *int
}

func (c resumeCounter) Round(out [][]byte) [][]byte {
	*c.rounds++
	*c.calls++
	return c.Process.Round(out)
}

func (c resumeCounter) Broadcast(msg []byte) [][]byte {
	*c.rounds++
	*c.calls++
	return c.Process.Broadcast(msg)
}

func (c resumeCounter) Idle(k int) {
	if k > 0 {
		*c.rounds += k
		*c.calls++
	}
	c.Process.Idle(k)
}

// TestLeafResumes is the leaf's round budget: every vertex spends exactly
// Rounds(n, degBound) rounds, but idles through the stages in which it has
// no uncolored edge to report or color, so it is suspended far fewer times
// than once per round (n·Rounds calls).
func TestLeafResumes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		classes int
		ceiling int // suspending calls over all vertices
	}{
		// The per-vertex forms of the served edge/pr run and of the leaf of
		// the served edge/be run (its plan has no recursion level on this
		// graph; under Compiled both run the flat pass), and a multi-class
		// leaf.
		// Measured 1018, 1710 and 1266 calls; one per round would be 1632,
		// 5632 and 5632.
		{"regular(48,4)", graph.RandomRegular(48, 4, 2), 1, 1100},
		{"gnm(64,192)", graph.GNM(64, 192, 1), 1, 1850},
		{"4-class/gnm(64,192)", graph.GNM(64, 192, 1), 4, 1400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			degBound := g.MaxDegree()
			rounds := make([]int, g.N())
			calls := make([]int, g.N())
			_, err := dist.Run(g, func(v dist.Process) []int {
				i := v.ID() - 1
				return EdgeColorMulti(resumeCounter{Process: v, rounds: &rounds[i], calls: &calls[i]},
					multiClassRule(v, tc.classes), degBound)
			}, dist.WithEngine(dist.Lockstep))
			if err != nil {
				t.Fatal(err)
			}
			want := Rounds(g.N(), degBound)
			total := 0
			for i, r := range rounds {
				if r != want {
					t.Fatalf("vertex id %d spent %d rounds, want %d", i+1, r, want)
				}
				total += calls[i]
			}
			if total > tc.ceiling {
				t.Fatalf("%d suspending calls, ceiling %d (one per round: %d)", total, tc.ceiling, want*g.N())
			}
			t.Logf("%d suspending calls (ceiling %d, one per round: %d)", total, tc.ceiling, want*g.N())
		})
	}
}
