package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// runFor executes a short run and checks its report carries every metric
// of its kind with its unit, and that every answer verified.
func runFor(t *testing.T, workload string, seed int64, trace bool) *bench {
	t.Helper()
	// cold-read serves a few hundred misses a second and must serve its
	// probe keys; the others are fast.
	dur := 500 * time.Millisecond
	if workload == "cold-read" {
		dur = 2 * time.Second
	}
	b, err := execute(workload, seed, dur, trace, t.TempDir())
	if err != nil {
		t.Fatalf("%s seed %d trace=%v: %v", workload, seed, trace, err)
	}
	out := b.report()
	if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
		t.Fatalf("%s seed %d trace=%v: attempted %d, failed %d: %v", workload, seed, trace, out.Attempted, out.Failed, b.problems)
	}
	defs := e2eMetrics
	if trace {
		defs = layerMetrics
	}
	if len(out.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := out.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", workload, d.name, m, d.unit)
		}
		if !trace && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", workload, d.name, m.Value)
		}
	}
	return b
}

// TestWorkloads runs every workload briefly, untraced and traced, and pins
// that the seed decides every seed-determined output.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for a few seconds")
	}
	// The exact counts each workload's outputs must repeat under one seed.
	exact := map[string][]string{
		"hot-read":     {"dist.rounds", "dist.msg_bytes", "dist.activations"},
		"cold-read":    {"dist.rounds", "dist.msg_bytes", "dist.activations"},
		"churn":        {"dynamic.activations_per_op", "dynamic.dirty_per_op", "wal.bytes_per_op"},
		"gateway-read": {"dist.rounds", "dist.activations"},
	}
	for _, w := range []string{"hot-read", "cold-read", "churn", "gateway-read"} {
		t.Run(w, func(t *testing.T) {
			a := runFor(t, w, 1, false)
			again := runFor(t, w, 1, false)
			other := runFor(t, w, 2, false)
			// The quality metrics are taken over a fixed panel: no seed
			// moves them.
			for _, name := range []string{"colors_used", "rounds", "max_msg_bytes"} {
				if a.e2e[name] != again.e2e[name] || a.e2e[name] != other.e2e[name] {
					t.Errorf("%s %v, %v under seed 1 and %v under seed 2", name, a.e2e[name], again.e2e[name], other.e2e[name])
				}
			}
			if !bytes.Equal(a.digest.Sum(nil), again.digest.Sum(nil)) {
				t.Error("one seed gave two different sets of outputs")
			}
			if bytes.Equal(a.digest.Sum(nil), other.digest.Sum(nil)) {
				t.Error("seeds 1 and 2 gave the same outputs")
			}
			ta := runFor(t, w, 1, true)
			tb := runFor(t, w, 1, true)
			for _, name := range exact[w] {
				if ta.layer[name].v == 0 || ta.layer[name] != tb.layer[name] {
					t.Errorf("%s: %v then %v under one seed", name, ta.layer[name], tb.layer[name])
				}
			}
		})
	}
}

// TestBenchmarkJSON pins the metric lists this program prints to the ones
// BENCHMARK.json declares, and its workloads to the ones it runs.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
		}
		for i := range min(len(declared), len(printed)) {
			if declared[i].Name != printed[i].name || declared[i].Unit != printed[i].unit {
				t.Errorf("%s %d: declared %s (%s), printed %s (%s)", kind, i, declared[i].Name, declared[i].Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		want := q * 1000e3
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v ns, want %v ± 1%%", q, got, want)
		}
	}
}
