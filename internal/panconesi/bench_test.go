package panconesi

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

// BenchmarkEdgeColoringByDelta exposes the Θ(Δ) round growth of
// Panconesi–Rizzi — the axis on which the paper's §5 algorithms win Table 1.
func BenchmarkEdgeColoringByDelta(b *testing.B) {
	for _, delta := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			g := graph.RandomRegular(128, delta, int64(delta))
			for i := 0; i < b.N; i++ {
				res, err := EdgeColoring(g)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Stats.Rounds), "rounds")
				}
			}
		})
	}
}

// BenchmarkMultiClassOverhead verifies the §5 leaf property: coloring many
// edge-disjoint classes simultaneously costs the same rounds as one class.
func BenchmarkMultiClassOverhead(b *testing.B) {
	g := graph.RandomRegular(96, 12, 3)
	for _, classes := range []int{1, 4} {
		classes := classes
		b.Run(fmt.Sprintf("classes=%d", classes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := runMultiClass(g, classes)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res), "rounds")
				}
			}
		})
	}
}

func runMultiClass(g *graph.Graph, classes int) (int, error) {
	degBound := g.MaxDegree()
	res, err := dist.Run(g, func(v dist.Process) []int {
		return EdgeColorMulti(v, multiClassRule(v, classes), degBound)
	})
	if err != nil {
		return 0, err
	}
	return res.Stats.Rounds, nil
}
