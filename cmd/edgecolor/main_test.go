package main

import (
	"testing"

	"repro/internal/testutil"
)

// TestGolden pins the CLI's stdout for fixed small graphs, exercising the
// full flag surface in-process (run is main minus os.Exit): the algorithm
// selection, -engine plumbing, -mode, and the -q dump switch can never
// silently break.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"be_gnm", []string{"-graph", "gnm", "-n", "48", "-m", "144", "-seed", "1", "-alg", "be", "-q"}},
		{"be_short_mode", []string{"-graph", "gnm", "-n", "48", "-m", "144", "-seed", "1", "-alg", "be", "-mode", "short", "-q"}},
		{"pr_regular", []string{"-graph", "regular", "-n", "24", "-deg", "4", "-seed", "2", "-alg", "pr", "-q"}},
		{"greedy_tree_dump", []string{"-graph", "tree", "-n", "16", "-seed", "3", "-alg", "greedy"}},
		{"rand_cycle", []string{"-graph", "cycle", "-n", "20", "-seed", "4", "-alg", "rand", "-q"}},
		{"fig1", []string{"-graph", "fig1", "-deg", "6", "-alg", "be", "-q"}},
		{"be_edgeless", []string{"-graph", "gnm", "-n", "5", "-m", "0", "-alg", "be"}},
		{"pr_edgeless", []string{"-graph", "gnm", "-n", "5", "-m", "0", "-alg", "pr"}},
		{"tradeoff_edgeless", []string{"-graph", "gnm", "-n", "5", "-m", "0", "-alg", "tradeoff"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := testutil.CaptureStdout(t, func() error { return run(tc.args) })
			testutil.Golden(t, tc.name, out)
		})
	}
}

// TestEngineFlagPlumbing checks that every -engine value is accepted and
// yields the exact output of the default engine — the CLI-level face of the
// runtime's engine-equivalence contract. Under compiled, be (whose plan on
// this graph has depth 0) and pr run the Panconesi–Rizzi flat pass, greedy
// the greedy flat pass, and be, pr and tradeoff on the edgeless graph their
// empty-coloring passes.
func TestEngineFlagPlumbing(t *testing.T) {
	for _, base := range [][]string{
		{"-graph", "gnm", "-n", "48", "-m", "144", "-seed", "1", "-alg", "be", "-q"},
		{"-graph", "regular", "-n", "24", "-deg", "4", "-seed", "2", "-alg", "pr", "-q"},
		{"-graph", "gnm", "-n", "30", "-m", "60", "-seed", "3", "-alg", "greedy", "-q"},
		{"-graph", "gnm", "-n", "5", "-m", "0", "-alg", "be", "-q"},
		{"-graph", "gnm", "-n", "5", "-m", "0", "-alg", "pr", "-q"},
		{"-graph", "gnm", "-n", "5", "-m", "0", "-alg", "tradeoff", "-q"},
	} {
		ref := testutil.CaptureStdout(t, func() error { return run(base) })
		for _, engine := range []string{"lockstep", "sharded", "compiled"} {
			out := testutil.CaptureStdout(t, func() error {
				return run(append([]string{"-engine", engine}, base...))
			})
			if out != ref {
				t.Fatalf("%v -engine %s output differs from default:\n%s\nvs\n%s", base, engine, out, ref)
			}
		}
		if err := run(append([]string{"-engine", "nope"}, base...)); err == nil {
			t.Fatal("-engine nope must be rejected")
		}
	}
}
