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
// fails with or without -warn. It also pins the allocation floors: a zero
// baseline tolerates up to factor × floor.
func TestGates(t *testing.T) {
	for _, tc := range []struct {
		name      string
		base, cur map[string]float64
		warn      bool
		wantErr   string // "" = must pass
	}{
		{"runtime clean",
			map[string]float64{"ns/op": 100, "rounds": 8}, map[string]float64{"ns/op": 120, "rounds": 8}, false, ""},
		{"runtime slow",
			map[string]float64{"ns/op": 100, "rounds": 8}, map[string]float64{"ns/op": 900, "rounds": 8}, false, "1 regression"},
		{"runtime slow warn",
			map[string]float64{"ns/op": 100, "rounds": 8}, map[string]float64{"ns/op": 900, "rounds": 8}, true, ""},
		{"runtime rounds drift",
			map[string]float64{"ns/op": 100, "rounds": 8}, map[string]float64{"ns/op": 100, "rounds": 9}, false, "drifted"},
		{"runtime msgBytes drift warn",
			map[string]float64{"ns/op": 100, "msgBytes": 64}, map[string]float64{"ns/op": 100, "msgBytes": 65}, true, "drifted"},
		{"runtime activations drift warn",
			map[string]float64{"ns/op": 100, "activations": 2575}, map[string]float64{"ns/op": 100, "activations": 2576}, true, "drifted"},
		{"runtime colors drift warn",
			map[string]float64{"colors": 20}, map[string]float64{"colors": 19}, true, "drifted"},
		{"runtime allocs",
			map[string]float64{"B/op": 4096, "allocs/op": 100}, map[string]float64{"B/op": 16384, "allocs/op": 1000}, false, "2 regression"},
		{"runtime allocs warn",
			map[string]float64{"B/op": 4096, "allocs/op": 100}, map[string]float64{"B/op": 16384, "allocs/op": 1000}, true, ""},
		{"runtime zero allocs floor",
			map[string]float64{"B/op": 0, "allocs/op": 0}, map[string]float64{"B/op": 1536, "allocs/op": 12}, false, ""},
		{"runtime zero allocs past floor",
			map[string]float64{"B/op": 0, "allocs/op": 0}, map[string]float64{"B/op": 1537, "allocs/op": 13}, false, "2 regression"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := []string{
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
