package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeReport writes a one-benchmark benchjson document and returns its path.
func writeReport(t *testing.T, name string, metrics map[string]float64) string {
	t.Helper()
	b, err := json.Marshal(report{Results: []result{{Name: "BenchmarkX", Metrics: metrics}}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGates pins which gates -warn downgrades: wall-clock and allocation
// regressions only warn, while any drift of an exact (deterministic) metric
// fails with or without -warn.
func TestGates(t *testing.T) {
	for _, tc := range []struct {
		name      string
		kind      string
		base, cur map[string]float64
		warn      bool
		wantErr   string // "" = must pass
	}{
		{"runtime clean", "runtime",
			map[string]float64{"ns/op": 100, "rounds": 8}, map[string]float64{"ns/op": 120, "rounds": 8}, false, ""},
		{"runtime slow", "runtime",
			map[string]float64{"ns/op": 100, "rounds": 8}, map[string]float64{"ns/op": 900, "rounds": 8}, false, "1 regression"},
		{"runtime slow warn", "runtime",
			map[string]float64{"ns/op": 100, "rounds": 8}, map[string]float64{"ns/op": 900, "rounds": 8}, true, ""},
		{"runtime rounds drift", "runtime",
			map[string]float64{"ns/op": 100, "rounds": 8}, map[string]float64{"ns/op": 100, "rounds": 9}, false, "drifted"},
		{"runtime msgBytes drift warn", "runtime",
			map[string]float64{"ns/op": 100, "msgBytes": 64}, map[string]float64{"ns/op": 100, "msgBytes": 65}, true, "drifted"},
		{"runtime activations drift warn", "runtime",
			map[string]float64{"ns/op": 100, "activations": 2575}, map[string]float64{"ns/op": 100, "activations": 2576}, true, "drifted"},
		{"runtime colors drift warn", "runtime",
			map[string]float64{"colors": 20}, map[string]float64{"colors": 19}, true, "drifted"},
		{"service allocs warn", "service",
			map[string]float64{"allocs/op": 100}, map[string]float64{"allocs/op": 1000}, true, ""},
		{"service colors-used drift warn", "service",
			map[string]float64{"req/s": 1000, "colors-used": 11}, map[string]float64{"req/s": 1000, "colors-used": 12}, true, "drifted"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := []string{"-kind", tc.kind,
				"-committed", writeReport(t, "base.json", tc.base),
				"-current", writeReport(t, "cur.json", tc.cur)}
			if tc.warn {
				args = append(args, "-warn")
			}
			err := run(args)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("want pass, got %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
