package algreg

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/edgecolor"
	"repro/internal/fewcolors"
	"repro/internal/graph"
	"repro/internal/panconesi"
)

// msgMode mirrors the CLIs' historical leniency: anything but "short" is
// wide. The servable Canon hooks validate strictly before this is reached.
func msgMode(mode string) edgecolor.MsgMode {
	if mode == "short" {
		return edgecolor.Short
	}
	return edgecolor.Wide
}

// zeroPlan cancels the plan parameters an algorithm ignores, keeping its
// cache keys canonical across differently-phrased requests.
func zeroPlan(p *Params) error {
	p.Mode, p.P, p.B = "", 0, 0
	return nil
}

func init() {
	// The paper's §5 legal edge coloring (plan-driven, O(Δ^ε)-ish rounds).
	Register(Algorithm{
		Kind: "edge", Name: "be", Quality: QualityFast,
		Canon: func(p *Params) error {
			if p.P == 0 {
				p.P = 6
			}
			if p.Mode != "wide" && p.Mode != "short" {
				return fmt.Errorf("unknown mode %q (want wide or short)", p.Mode)
			}
			return nil
		},
		BuildEdge: func(g *graph.Graph, p Params) (dist.Algo[[]int], int, error) {
			algo, pl, err := legalEdgeAlgo(g, p)
			if err != nil || pl == nil {
				return algo, 0, err
			}
			return algo, pl.TotalPalette(), nil
		},
		RunEdge: func(g *graph.Graph, p Params, opts ...dist.Option) (*dist.Result[[]int], []string, error) {
			algo, pl, err := legalEdgeAlgo(g, p)
			if err != nil {
				return nil, nil, err
			}
			var notes []string
			if pl != nil {
				notes = []string{fmt.Sprintf("plan:  %v", pl)}
			}
			res, err := dist.RunAlgo(g, algo, opts...)
			return res, notes, err
		},
	})

	// Panconesi–Rizzi 2Δ-1 edge coloring (O(Δ + log* n) rounds).
	Register(Algorithm{
		Kind: "edge", Name: "pr", Quality: QualityFast,
		Canon: zeroPlan,
		BuildEdge: func(g *graph.Graph, p Params) (dist.Algo[[]int], int, error) {
			delta := g.MaxDegree()
			return panconesi.EdgeColorAlgo(delta), edgePalette(delta), nil
		},
		RunEdge: func(g *graph.Graph, p Params, opts ...dist.Option) (*dist.Result[[]int], []string, error) {
			res, err := panconesi.EdgeColoring(g, opts...)
			return res, nil, err
		},
	})

	// Sequential-order greedy baseline (2Δ-1 colors).
	Register(Algorithm{
		Kind: "edge", Name: "greedy", Quality: QualityFast,
		Canon: zeroPlan,
		BuildEdge: func(g *graph.Graph, p Params) (dist.Algo[[]int], int, error) {
			return baseline.GreedyEdgeAlgo(), edgePalette(g.MaxDegree()), nil
		},
		RunEdge: func(g *graph.Graph, p Params, opts ...dist.Option) (*dist.Result[[]int], []string, error) {
			res, err := baseline.GreedyEdgeColoring(g, opts...)
			return res, nil, err
		},
	})

	// Δ+o(Δ) measured palette: PR base + Kempe vacate/descent sweeps.
	Register(Algorithm{
		Kind: "edge", Name: "fewcolors", Quality: QualityFewColors,
		Canon: zeroPlan,
		BuildEdge: func(g *graph.Graph, p Params) (dist.Algo[[]int], int, error) {
			return fewcolors.Algo(), fewcolors.PaletteBound(g), nil
		},
		RunEdge: func(g *graph.Graph, p Params, opts ...dist.Option) (*dist.Result[[]int], []string, error) {
			res, err := dist.RunAlgo(g, fewcolors.Algo(), opts...)
			return res, nil, err
		},
	})

	// Randomized trial baseline (keeps the best of seeded trials).
	Register(Algorithm{
		Kind: "edge", Name: "rand",
		RunEdge: func(g *graph.Graph, p Params, opts ...dist.Option) (*dist.Result[[]int], []string, error) {
			res, err := baseline.RandomizedTrialEdgeColoring(g, opts...)
			return res, nil, err
		},
	})

	// §6 colors-vs-rounds tradeoff on half-degree classes.
	Register(Algorithm{
		Kind: "edge", Name: "tradeoff",
		RunEdge: func(g *graph.Graph, p Params, opts ...dist.Option) (*dist.Result[[]int], []string, error) {
			if g.MaxDegree() == 0 {
				res, err := dist.RunAlgo(g, noEdgesAlgo, opts...)
				return res, nil, err
			}
			res, err := edgecolor.TradeoffEdgeColoring(g, p.B, p.P, g.MaxDegree()/2, msgMode(p.Mode), opts...)
			return res, nil, err
		},
	})

	// Corollary 6.2 randomized edge coloring (seeded restarts).
	Register(Algorithm{
		Kind: "edge", Name: "cor62",
		RunEdge: func(g *graph.Graph, p Params, opts ...dist.Option) (*dist.Result[[]int], []string, error) {
			res, err := edgecolor.RandomizedEdgeColoring(g, p.B, p.P, 8, msgMode(p.Mode), opts...)
			return res, nil, err
		},
	})

	// Procedure Legal-Color under bounded neighborhood independence.
	Register(Algorithm{
		Kind: "vertex", Name: "be", Quality: QualityFast,
		Canon: func(p *Params) error {
			if p.P == 0 {
				p.P = 4*p.C + 1
			}
			p.Mode = ""
			return nil
		},
		BuildVertex: func(g *graph.Graph, p Params) (dist.Algo[int], int, error) {
			algo, pl, err := legalVertexAlgo(g, p, core.StartIDs)
			if err != nil {
				return algo, 0, err
			}
			if pl == nil {
				return algo, min(g.N(), 1), nil
			}
			return algo, pl.TotalPalette(), nil
		},
		RunVertex: runLegal(core.StartIDs),
	})

	// Procedure Legal-Color seeded by vertex identifiers (alias of be).
	Register(Algorithm{
		Kind: "vertex", Name: "legal",
		RunVertex: runLegal(core.StartIDs),
	})

	// Procedure Legal-Color seeded by an auxiliary O(Δ²)-coloring.
	Register(Algorithm{
		Kind: "vertex", Name: "legalaux",
		RunVertex: runLegal(core.StartAux),
	})

	// Procedure Defective-Color: p²-coloring with bounded defect.
	Register(Algorithm{
		Kind: "vertex", Name: "defective", NoFooter: true,
		RunVertex: func(g *graph.Graph, p Params, opts ...dist.Option) (*dist.Result[int], []string, error) {
			var res *dist.Result[int]
			var err error
			if g.MaxDegree() == 0 {
				res, err = dist.RunAlgo(g, oneColorAlgo, opts...)
			} else {
				res, err = core.DefectiveColoring(g, p.C, p.B, p.P, opts...)
			}
			if err != nil {
				return nil, nil, err
			}
			bound := core.DefectiveColoringBound(g.MaxDegree(), p.C, p.B, p.P)
			defect := graph.VertexDefect(g, res.Outputs)
			return res, []string{
				fmt.Sprintf("defective %d-coloring: defect %d (bound %d), product defect·p = %d vs Δ = %d",
					p.P, defect, bound, defect*p.P, g.MaxDegree()),
				fmt.Sprintf("cost: %v", res.Stats),
			}, nil
		},
	})

	// §6 tradeoff coloring on half-degree classes.
	Register(Algorithm{
		Kind: "vertex", Name: "tradeoff",
		RunVertex: func(g *graph.Graph, p Params, opts ...dist.Option) (*dist.Result[int], []string, error) {
			if g.MaxDegree() == 0 {
				res, err := dist.RunAlgo(g, oneColorAlgo, opts...)
				return res, nil, err
			}
			classDeg := g.MaxDegree() / 2
			if classDeg < 2 {
				classDeg = g.MaxDegree()
			}
			res, err := core.TradeoffColoring(g, p.C, p.B, p.P, classDeg, opts...)
			return res, nil, err
		},
	})

	// Randomized coloring with seeded restarts (κ = 8).
	Register(Algorithm{
		Kind: "vertex", Name: "randomized",
		RunVertex: func(g *graph.Graph, p Params, opts ...dist.Option) (*dist.Result[int], []string, error) {
			res, err := core.RandomizedColoring(g, p.C, p.B, p.P, 8, opts...)
			return res, nil, err
		},
	})

	// Sequential-order greedy baseline (Δ+1 colors).
	Register(Algorithm{
		Kind: "vertex", Name: "greedy", Quality: QualityFast,
		Canon: func(p *Params) error {
			p.Mode, p.P, p.B, p.C = "", 0, 0, 0
			return nil
		},
		BuildVertex: func(g *graph.Graph, p Params) (dist.Algo[int], int, error) {
			return baseline.GreedyVertexAlgo(), g.MaxDegree() + 1, nil
		},
		RunVertex: func(g *graph.Graph, p Params, opts ...dist.Option) (*dist.Result[int], []string, error) {
			res, err := baseline.GreedyVertexColoring(g, opts...)
			return res, nil, err
		},
	})
}

// edgePalette is the 2Δ−1 palette bound of the greedy-style edge colorings:
// 0 on an edgeless graph, which has nothing to color.
func edgePalette(delta int) int {
	return max(2*delta-1, 0)
}

// legalEdgeAlgo builds the §5 edge Legal-Color bundle for g under the plan
// AutoPlan picks; at depth 0 it carries the Panconesi–Rizzi flat pass. An
// edgeless graph has no plan (AutoPlan needs Δ >= 1): its bundle is the
// empty coloring, returned with a nil plan.
func legalEdgeAlgo(g *graph.Graph, p Params) (dist.Algo[[]int], *core.Plan, error) {
	if g.MaxDegree() == 0 {
		return noEdgesAlgo, nil, nil
	}
	pl, err := core.AutoPlan(g.MaxDegree(), 2, p.B, p.P, true)
	if err != nil {
		return dist.Algo[[]int]{}, nil, err
	}
	algo, err := edgecolor.LegalEdgeAlgo(g.MaxDegree(), pl, msgMode(p.Mode))
	return algo, pl, err
}

// legalVertexAlgo builds the vertex Legal-Color bundle for g under the plan
// AutoPlan picks, seeded by mode. An edgeless graph has no plan (AutoPlan
// needs Δ >= 1): its bundle is the 1-coloring of the isolated vertices,
// still a real run so the accounting pipeline stays uniform, returned with
// a nil plan.
func legalVertexAlgo(g *graph.Graph, p Params, mode core.Mode) (dist.Algo[int], *core.Plan, error) {
	if g.MaxDegree() == 0 {
		return oneColorAlgo, nil, nil
	}
	pl, err := core.AutoPlan(g.MaxDegree(), p.C, p.B, p.P, false)
	if err != nil {
		return dist.Algo[int]{}, nil, err
	}
	algo, err := core.LegalColorAlgo(g.N(), g.MaxDegree(), pl, mode)
	return algo, pl, err
}

// oneColorAlgo is the 1-coloring of an edgeless graph's isolated vertices
// and noEdgesAlgo its empty edge coloring. The Legal-Color, tradeoff and
// defective hooks answer Δ=0 with them: no vertex calls Round, so the run
// spends no rounds.
var (
	oneColorAlgo = dist.Algo[int]{Vertex: func(dist.Process) int { return 1 }, Compiled: oneColor{}}
	noEdgesAlgo  = dist.Algo[[]int]{Vertex: func(dist.Process) []int { return nil }, Compiled: noEdges{}}
)

// oneColor is the flat pass of the edgeless 1-coloring: no vertex calls
// Round, so the run spends no rounds.
type oneColor struct{}

func (oneColor) RunCompiled(_ *graph.Graph, _ dist.CompiledEnv, out []int) (dist.Stats, error) {
	for v := range out {
		out[v] = 1
	}
	return dist.Stats{}, nil
}

// noEdges is the flat pass of an edgeless graph's edge coloring: every
// vertex has no ports to color and no vertex calls Round.
type noEdges struct{}

func (noEdges) RunCompiled(_ *graph.Graph, _ dist.CompiledEnv, _ [][]int) (dist.Stats, error) {
	return dist.Stats{}, nil
}

// runLegal builds the Legal-Color CLI hook for a start mode: plan note
// (none on an edgeless graph, which has no plan) plus the full run.
func runLegal(mode core.Mode) func(*graph.Graph, Params, ...dist.Option) (*dist.Result[int], []string, error) {
	return func(g *graph.Graph, p Params, opts ...dist.Option) (*dist.Result[int], []string, error) {
		algo, pl, err := legalVertexAlgo(g, p, mode)
		if err != nil {
			return nil, nil, err
		}
		var notes []string
		if pl != nil {
			notes = []string{fmt.Sprintf("plan:  %v", pl)}
		}
		res, err := dist.RunAlgo(g, algo, opts...)
		return res, notes, err
	}
}
