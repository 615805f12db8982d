// Command edgecolor runs one distributed edge-coloring algorithm on one
// generated graph and reports colors, rounds, and message statistics.
//
// Example:
//
//	edgecolor -graph gnm -n 256 -m 2048 -alg be -b 2 -p 6
//	edgecolor -graph regular -n 512 -deg 16 -alg pr
//	edgecolor -graph gnm -n 256 -m 1024 -alg rand -seed 7
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/algreg"
	"repro/internal/dist"
	"repro/internal/graph"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "edgecolor:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("edgecolor", flag.ContinueOnError)
	var (
		gtype  = fs.String("graph", "gnm", "graph family: gnm|regular|clique|cycle|tree|fig1")
		n      = fs.Int("n", 256, "number of vertices")
		m      = fs.Int("m", 1024, "number of edges (gnm)")
		deg    = fs.Int("deg", 8, "degree (regular) / k (fig1)")
		seed   = fs.Int64("seed", 1, "generator and algorithm seed")
		alg    = fs.String("alg", "be", "algorithm: "+algreg.HelpList("edge"))
		bFlag  = fs.Int("b", 2, "Algorithm 1 parameter b")
		pFlag  = fs.Int("p", 6, "Algorithm 1 parameter p")
		mode   = fs.String("mode", "wide", "message mode: wide|short")
		engine = fs.String("engine", "goroutines", "dist scheduler: goroutines|lockstep|sharded|compiled")
		quiet  = fs.Bool("q", false, "suppress the per-edge coloring dump")
		dot    = fs.String("dot", "", "write the colored graph in Graphviz DOT format to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := makeGraph(*gtype, *n, *m, *deg, *seed)
	if err != nil {
		return err
	}
	eng, err := dist.ParseEngine(*engine)
	if err != nil {
		return err
	}
	opts := []dist.Option{dist.WithSeed(*seed), dist.WithEngine(eng)}
	fmt.Printf("graph: %v\n", g)

	entry, ok := algreg.Lookup("edge", *alg)
	if !ok || entry.RunEdge == nil {
		return fmt.Errorf("unknown algorithm %q", *alg)
	}
	params := algreg.Params{B: *bFlag, P: *pFlag, Mode: *mode, Seed: *seed}
	ports, notes, err := entry.RunEdge(g, params, opts...)
	if err != nil {
		return err
	}
	for _, note := range notes {
		fmt.Println(note)
	}
	colors, err := graph.MergePortColors(g, ports.Outputs)
	if err != nil {
		return err
	}
	if err := graph.CheckEdgeColoring(g, colors); err != nil {
		return fmt.Errorf("result is not a legal edge coloring: %w", err)
	}
	fmt.Printf("legal edge coloring: %d colors (2Δ-1 = %d), stats: %v\n",
		graph.CountColors(colors), max(2*g.MaxDegree()-1, 0), ports.Stats)
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := graph.WriteDOT(f, g, nil, colors); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *dot)
	}
	if !*quiet {
		limit := len(colors)
		if limit > 20 {
			limit = 20
		}
		for id := 0; id < limit; id++ {
			e := g.EdgeAt(id)
			fmt.Printf("  edge (%d,%d) -> color %d\n", e.U, e.V, colors[id])
		}
		if limit < len(colors) {
			fmt.Printf("  ... and %d more edges\n", len(colors)-limit)
		}
	}
	return nil
}

func makeGraph(gtype string, n, m, deg int, seed int64) (*graph.Graph, error) {
	switch gtype {
	case "gnm":
		return graph.GNM(n, m, seed), nil
	case "regular":
		return graph.RandomRegular(n, deg, seed), nil
	case "clique":
		return graph.Complete(n), nil
	case "cycle":
		return graph.Cycle(n), nil
	case "tree":
		return graph.RandomTree(n, seed), nil
	case "fig1":
		return graph.CliquePlusPendants(deg), nil
	default:
		return nil, fmt.Errorf("unknown graph family %q", gtype)
	}
}
