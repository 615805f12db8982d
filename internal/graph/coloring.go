package graph

import "fmt"

// This file holds centralized validators for vertex and edge colorings.
// They are independent of the distributed implementations and serve as the
// ground truth in tests and experiments.

// CheckVertexColoring verifies that colors is a legal vertex coloring:
// len(colors) == N, every color >= 1, and no edge is monochromatic.
func CheckVertexColoring(g *Graph, colors []int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("coloring: got %d colors for %d vertices", len(colors), g.N())
	}
	for v, c := range colors {
		if c < 1 {
			return fmt.Errorf("coloring: vertex %d has invalid color %d", v, c)
		}
	}
	for _, e := range g.Edges() {
		if colors[e.U] == colors[e.V] {
			return fmt.Errorf("coloring: edge (%d,%d) monochromatic in color %d", e.U, e.V, colors[e.U])
		}
	}
	return nil
}

// VertexDefect returns the defect of a vertex coloring: the maximum over
// vertices v of the number of neighbors sharing v's color (§1.3). A legal
// coloring has defect 0.
func VertexDefect(g *Graph, colors []int) int {
	worst := 0
	for v := 0; v < g.N(); v++ {
		same := 0
		for _, u := range g.Neighbors(v) {
			if colors[u] == colors[v] {
				same++
			}
		}
		if same > worst {
			worst = same
		}
	}
	return worst
}

// CheckDefectiveVertexColoring verifies colors is an m-defective χ-coloring:
// every color in {1..χ} and defect at most m.
func CheckDefectiveVertexColoring(g *Graph, colors []int, m, chi int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("coloring: got %d colors for %d vertices", len(colors), g.N())
	}
	for v, c := range colors {
		if c < 1 || c > chi {
			return fmt.Errorf("coloring: vertex %d has color %d outside [1,%d]", v, c, chi)
		}
	}
	if d := VertexDefect(g, colors); d > m {
		return fmt.Errorf("coloring: defect %d exceeds bound %d", d, m)
	}
	return nil
}

// CheckEdgeColoring verifies that colors (indexed by edge id) is a legal
// edge coloring: incident edges get distinct colors, all colors >= 1.
func CheckEdgeColoring(g *Graph, colors []int) error {
	if len(colors) != g.M() {
		return fmt.Errorf("coloring: got %d colors for %d edges", len(colors), g.M())
	}
	for id, c := range colors {
		if c < 1 {
			return fmt.Errorf("coloring: edge %d has invalid color %d", id, c)
		}
	}
	for v := 0; v < g.N(); v++ {
		seen := make(map[int]int32, g.Deg(v))
		for _, id := range g.IncidentEdgeIDs(v) {
			c := colors[id]
			if other, dup := seen[c]; dup {
				return fmt.Errorf("coloring: edges %d and %d incident at vertex %d share color %d",
					other, id, v, c)
			}
			seen[c] = id
		}
	}
	return nil
}

// EdgeDefect returns the defect of an edge coloring: the maximum over edges e
// of the number of edges incident to e (at either endpoint) sharing e's color.
func EdgeDefect(g *Graph, colors []int) int {
	worst := 0
	for id := range colors {
		e := g.EdgeAt(id)
		same := 0
		for _, id2 := range g.IncidentEdgeIDs(e.U) {
			if int(id2) != id && colors[id2] == colors[id] {
				same++
			}
		}
		for _, id2 := range g.IncidentEdgeIDs(e.V) {
			if int(id2) != id && colors[id2] == colors[id] {
				same++
			}
		}
		if same > worst {
			worst = same
		}
	}
	return worst
}

// CheckDefectiveEdgeColoring verifies an m-defective χ-edge-coloring.
func CheckDefectiveEdgeColoring(g *Graph, colors []int, m, chi int) error {
	if len(colors) != g.M() {
		return fmt.Errorf("coloring: got %d colors for %d edges", len(colors), g.M())
	}
	for id, c := range colors {
		if c < 1 || c > chi {
			return fmt.Errorf("coloring: edge %d has color %d outside [1,%d]", id, c, chi)
		}
	}
	if d := EdgeDefect(g, colors); d > m {
		return fmt.Errorf("coloring: edge defect %d exceeds bound %d", d, m)
	}
	return nil
}

// MergePortColors folds per-vertex port colorings (ports[v][p] = color of the
// edge at port p of vertex v, 0 = no color) into a single per-edge color
// slice, verifying that the two endpoints of every edge agree. Distributed
// edge-coloring algorithms maintain each edge's color at both endpoints
// (§5); this is the centralized consistency check and extraction.
func MergePortColors(g *Graph, ports [][]int) ([]int, error) {
	colors := make([]int, g.M())
	for id := range colors {
		colors[id] = -1
	}
	for v := 0; v < g.N(); v++ {
		ids := g.IncidentEdgeIDs(v)
		if len(ports[v]) != len(ids) {
			return nil, fmt.Errorf("coloring: vertex %d reported %d port colors for %d ports",
				v, len(ports[v]), len(ids))
		}
		for port, id := range ids {
			c := ports[v][port]
			if colors[id] == -1 {
				colors[id] = c
			} else if colors[id] != c {
				return nil, fmt.Errorf("coloring: edge %d endpoints disagree (%d vs %d)",
					id, colors[id], c)
			}
		}
	}
	return colors, nil
}

// SlotPortColors is MergePortColors' counterpart for a flat pass that keeps
// one color per CSR slot (see Slots): it sets ports[v] to v's slots of
// colors, as a view capped at its own length, so every vertex's port colors
// share the one array and appending to one vertex's never writes into the
// next's.
func SlotPortColors(g *Graph, colors []int, ports [][]int) {
	for v := range ports {
		lo, hi := g.off[v], g.off[v+1]
		ports[v] = colors[lo:hi:hi]
	}
}

// CountColors returns the number of distinct colors used.
func CountColors(colors []int) int {
	seen := make(map[int]struct{}, len(colors))
	for _, c := range colors {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// MaxColor returns the largest color used (0 for an empty slice). Palette
// bounds in the paper are stated against the largest color, since colors are
// drawn from {1..χ}.
func MaxColor(colors []int) int {
	m := 0
	for _, c := range colors {
		if c > m {
			m = c
		}
	}
	return m
}
