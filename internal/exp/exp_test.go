package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

func TestTableRender(t *testing.T) {
	tab := Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"a", "bbbb"},
	}
	tab.Add(1, "x")
	tab.Add(22.5, "yy")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "a note", "bbbb", "22.50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "fig1", "fig2", "fig3",
		"defectproduct", "vertexscaling", "msgsize", "cor54",
		"cor62", "tradeoff", "linegraphsim", "ni", "ablation",
		"tiers",
	}
	for _, name := range want {
		if _, ok := Lookup(name); !ok {
			t.Errorf("experiment %q not registered", name)
		}
	}
	if got := len(All()); got != len(want) {
		t.Errorf("registry has %d experiments, want %d", got, len(want))
	}
	// All() is sorted.
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Fatal("All() not sorted")
		}
	}
}

// TestFastExperimentsRun executes the quick experiments end to end; the
// heavyweight ones (table1, table2, cor62) are exercised by cmd/repro and
// the benchmarks.
func TestFastExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are not short")
	}
	for _, name := range []string{"fig1", "fig2", "cor54", "ni", "defectproduct", "ablation"} {
		name := name
		t.Run(name, func(t *testing.T) {
			e, ok := Lookup(name)
			if !ok {
				t.Fatalf("missing %q", name)
			}
			var buf bytes.Buffer
			if err := e.Run(&buf, Config{}); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "==") {
				t.Fatal("no table rendered")
			}
			if strings.Contains(buf.String(), "ILLEGAL") || strings.Contains(buf.String(), "NO") {
				t.Fatalf("experiment reported a violated bound:\n%s", buf.String())
			}
		})
	}
}

// TestArtifactsConfigIndependent pins the harness determinism contract: the
// rendered artifact of an experiment is byte-identical whether the grid runs
// serially or on a wide worker pool, and whichever engine executes the
// simulator runs.
func TestArtifactsConfigIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are not short")
	}
	for _, name := range []string{"fig1", "cor54", "defectproduct", "vertexscaling"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("missing %q", name)
		}
		var ref bytes.Buffer
		if err := e.Run(&ref, Config{Workers: 1, Engine: dist.Goroutines}); err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{
			{Workers: 8, Engine: dist.Goroutines},
			{Workers: 1, Engine: dist.Sharded},
			{Workers: 8, Engine: dist.Sharded},
			{Workers: 3, Engine: dist.Lockstep},
			{Workers: 2, Engine: dist.Compiled},
		} {
			var got bytes.Buffer
			if err := e.Run(&got, cfg); err != nil {
				t.Fatalf("%s %+v: %v", name, cfg, err)
			}
			if got.String() != ref.String() {
				t.Fatalf("%s: artifact differs under %+v", name, cfg)
			}
		}
	}
}

// TestVertexScaling pins claim E2 (Theorems 4.5/4.6): every row of the
// vertexscaling artifact — plan depths 0 to 3 — is a legal coloring, and
// its rounds are exactly core.LegalRounds(600, Δ, plan, StartAux) for the
// row's plan, AutoPlan(Δ, 2, 2, 6).
func TestVertexScaling(t *testing.T) {
	e, ok := Lookup("vertexscaling")
	if !ok {
		t.Fatal("missing vertexscaling")
	}
	var buf bytes.Buffer
	if err := e.Run(&buf, Config{}); err != nil {
		t.Fatal(err)
	}
	var depths []int
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line) // n Δ depth rounds colors ϑ(0) legal
		if len(f) != 7 || f[0] != "600" {
			continue
		}
		var delta, depth, rounds int
		if _, err := fmt.Sscan(f[1]+" "+f[2]+" "+f[3], &delta, &depth, &rounds); err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		pl, err := core.AutoPlan(delta, 2, 2, 6, false)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.LegalRounds(600, delta, pl, core.StartAux)
		if err != nil {
			t.Fatal(err)
		}
		if f[6] != "ok" || depth != pl.Depth() || rounds != want {
			t.Fatalf("row %q: want depth %d, %d rounds, legal ok", line, pl.Depth(), want)
		}
		depths = append(depths, depth)
	}
	if fmt.Sprint(depths) != "[0 1 2 3]" {
		t.Fatalf("row depths %v, want [0 1 2 3]:\n%s", depths, buf.String())
	}
}

// TestParallelHelper pins the Parallel contract: index-ordered results and
// first-error-by-index, independent of pool width.
func TestParallelHelper(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		got, err := Parallel(Config{Workers: workers}, 9, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
		_, err = Parallel(Config{Workers: workers}, 9, func(i int) (int, error) {
			if i >= 4 {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "boom 4" {
			t.Fatalf("workers=%d: err = %v, want boom 4 (first in index order)", workers, err)
		}
	}
}
