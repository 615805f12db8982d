package dynamic

import (
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

// FuzzRepairCompiledAgree: on any graph and any boundary constraints, the
// repair bundle's flat pass under Compiled produces exactly the Outputs and
// Stats of its per-vertex form under Lockstep, and the result is a legal
// edge coloring that avoids every edge's forbidden colors. forbid is read as
// (edge, color) byte pairs.
func FuzzRepairCompiledAgree(f *testing.F) {
	f.Add(12, 30, int64(1), []byte{0, 1, 0, 2, 3, 1, 5, 4})
	f.Add(40, 200, int64(7), []byte{1, 1, 1, 2, 1, 3, 9, 5, 17, 0, 30, 31})
	f.Add(7, 21, int64(2), []byte{})
	f.Add(25, 60, int64(4), []byte{2, 6, 2, 7, 4, 1, 8, 2, 16, 3, 32, 4, 64, 5})
	f.Add(1, 0, int64(0), []byte{9})
	f.Fuzz(func(t *testing.T, n, m int, seed int64, forbid []byte) {
		if n < 0 || n > 40 {
			return
		}
		if len(forbid) > 256 {
			forbid = forbid[:256]
		}
		m = min(max(m, 0), n*(n-1)/2)
		g := graph.GNM(n, m, seed)
		forbidden := make([][]int, g.M())
		for i := 0; i+1 < len(forbid) && g.M() > 0; i += 2 {
			id := int(forbid[i]) % g.M()
			forbidden[id] = append(forbidden[id], int(forbid[i+1])%32)
		}
		bundle := repairBundle(g, forbidden)
		want, werr := dist.Run(g, bundle.Vertex, dist.WithEngine(dist.Lockstep))
		got, gerr := dist.RunAlgo(g, bundle, dist.WithEngine(dist.Compiled))
		if werr != nil || gerr != nil {
			t.Fatalf("lockstep %v, compiled %v", werr, gerr)
		}
		if !reflect.DeepEqual(got.Outputs, want.Outputs) {
			t.Fatalf("compiled repair outputs diverge from lockstep")
		}
		if got.Stats != want.Stats {
			t.Fatalf("compiled repair stats diverge: %+v vs %+v", got.Stats, want.Stats)
		}
		colors, err := graph.MergePortColors(g, got.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.CheckEdgeColoring(g, colors); err != nil {
			t.Fatal(err)
		}
		for id, fb := range forbidden {
			for _, c := range fb {
				if colors[id] == c {
					t.Fatalf("edge %d took forbidden color %d", id, c)
				}
			}
		}
	})
}
