// Quickstart: color the edges of a random graph with the paper's §5
// deterministic algorithm, verify the result, and inspect the cost
// accounting of the LOCAL-model simulator.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/edgecolor"
	"repro/internal/graph"
)

func main() {
	// A random graph on 200 vertices with 1200 edges.
	g := graph.GNM(200, 1200, 42)
	fmt.Printf("input: %v\n", g)

	// Plan the Legal-Color recursion for this Δ: c = 2 because the line
	// graph of any graph has neighborhood independence at most 2 (Lemma
	// 5.1); b and p trade per-level rounds against palette size.
	plan, err := core.AutoPlan(g.MaxDegree(), 2, 2, 6, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %v\n", plan)

	// Run the distributed algorithm: one coroutine per vertex, synchronous
	// rounds, O(log n)-bit messages.
	res, err := edgecolor.LegalEdgeColoring(g, plan, edgecolor.Wide)
	if err != nil {
		log.Fatal(err)
	}

	// Both endpoints of every edge hold its color; merge and verify.
	colors, err := graph.MergePortColors(g, res.Outputs)
	if err != nil {
		log.Fatal(err)
	}
	if err := graph.CheckEdgeColoring(g, colors); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("legal edge coloring with %d colors (palette bound %d, 2Δ-1 = %d)\n",
		graph.CountColors(colors), plan.TotalPalette(), 2*g.MaxDegree()-1)
	fmt.Printf("cost: %v\n", res.Stats)

	for id := 0; id < 5; id++ {
		e := g.EdgeAt(id)
		fmt.Printf("  edge (%d,%d) -> color %d\n", e.U, e.V, colors[id])
	}
}
