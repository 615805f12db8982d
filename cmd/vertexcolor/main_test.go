package main

import (
	"testing"

	"repro/internal/testutil"
)

// TestGolden pins the CLI's stdout for fixed small graphs across the
// algorithm and flag surface (run is main minus os.Exit).
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"legal_linegraph", []string{"-graph", "linegraph", "-n", "24", "-m", "60", "-seed", "1", "-alg", "legal"}},
		{"legalaux_powercycle", []string{"-graph", "powercycle", "-n", "30", "-k", "3", "-alg", "legalaux"}},
		{"defective_powercycle", []string{"-graph", "powercycle", "-n", "30", "-k", "5", "-alg", "defective", "-p", "4"}},
		{"greedy_geometric", []string{"-graph", "geometric", "-n", "40", "-seed", "2", "-alg", "greedy"}},
		{"tradeoff_fig1", []string{"-graph", "fig1", "-k", "6", "-alg", "tradeoff"}},
		{"be_edgeless", []string{"-graph", "powercycle", "-n", "10", "-k", "0", "-alg", "be"}},
		{"tradeoff_edgeless", []string{"-graph", "powercycle", "-n", "10", "-k", "0", "-alg", "tradeoff"}},
		{"defective_edgeless", []string{"-graph", "powercycle", "-n", "10", "-k", "0", "-alg", "defective"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := testutil.CaptureStdout(t, func() error { return run(tc.args) })
			testutil.Golden(t, tc.name, out)
		})
	}
}

// TestEngineFlagPlumbing checks -engine acceptance and engine-independence
// of the output at the CLI level. Under compiled, legal runs the Legal-Color
// flat pass, greedy the greedy flat pass, and be, tradeoff and defective on
// the edgeless graph the 1-coloring pass.
func TestEngineFlagPlumbing(t *testing.T) {
	for _, base := range [][]string{
		{"-graph", "powercycle", "-n", "30", "-k", "3", "-alg", "legal"},
		{"-graph", "geometric", "-n", "40", "-seed", "2", "-alg", "greedy"},
		{"-graph", "powercycle", "-n", "10", "-k", "0", "-alg", "be"},
		{"-graph", "powercycle", "-n", "10", "-k", "0", "-alg", "tradeoff"},
		{"-graph", "powercycle", "-n", "10", "-k", "0", "-alg", "defective"},
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
