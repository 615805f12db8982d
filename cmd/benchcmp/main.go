// Command benchcmp gates benchmark regressions: it compares a fresh
// cmd/benchjson document against the committed BENCH_runtime.json and fails
// when a gated metric regresses.
//
// Gates:
//
//   - ns/op, B/op and allocs/op regress when current > factor × baseline.
//     The allocation gates use a floor: the baseline is clamped up (512 B, 4
//     allocations) before the ratio is taken, so a zero- or near-zero
//     baseline doesn't turn one stray allocation into an infinite ratio;
//   - the deterministic LOCAL-model metrics (rounds, msgBytes, colors, ...)
//     must match exactly — a changed round count is a semantics change, not
//     noise, so it regresses at any -factor.
//
// Other metrics do not gate. A benchmark present in the baseline but missing
// from the current run is a regression (the workload silently stopped being
// measured).
//
// Usage:
//
//	go run ./cmd/benchcmp -committed BENCH_runtime.json -current new.json
//	go run ./cmd/benchcmp -factor 3 -warn ...   # report noise-prone gates only (CI)
//
// -warn downgrades the wall-clock and allocation gates to a report, for
// runners too noisy to block on. It never downgrades an exact gate: a
// drifted rounds/msgBytes/colors value fails the run either way.
//
// scripts/bench_runtime_check.sh wires this behind a fresh scripts/bench.sh
// pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type result struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

type report struct {
	Results []result `json:"results"`
}

// exactRuntimeMetrics are the deterministic LOCAL-model metrics of a runtime
// benchmark: same code, same graph, same seed means byte-identical runs, so
// any drift is a real behavior change. activations is dist.Stats.Activations,
// the sequential work count of a run.
var exactRuntimeMetrics = []string{"rounds", "msgBytes", "colors", "maxMsgB", "defect", "depth", "delta", "activations"}

// gates is every comparison benchcmp makes, in report order.
var gates = func() []gate {
	g := []gate{
		{metric: "ns/op"},
		{metric: "B/op", floor: 512},
		{metric: "allocs/op", floor: 4},
	}
	for _, m := range exactRuntimeMetrics {
		g = append(g, gate{metric: m, exact: true})
	}
	return g
}()

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	var (
		committed = fs.String("committed", "BENCH_runtime.json", "baseline benchjson document")
		current   = fs.String("current", "", "fresh benchjson document to gate")
		factor    = fs.Float64("factor", 3, "allowed regression factor on ns/op, B/op and allocs/op")
		warn      = fs.Bool("warn", false, "report wall-clock and allocation regressions without failing (CI smoke); exact-metric drift still fails")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *current == "" {
		return fmt.Errorf("need -current")
	}
	if *factor <= 1 {
		return fmt.Errorf("-factor must exceed 1, got %v", *factor)
	}
	base, err := loadReport(*committed)
	if err != nil {
		return err
	}
	curRep, err := loadReport(*current)
	if err != nil {
		return err
	}
	cur := make(map[string]result, len(curRep.Results))
	for _, r := range curRep.Results {
		cur[r.Name] = r
	}

	regressions, drifts := 0, 0
	for _, b := range base.Results {
		c, ok := cur[b.Name]
		if !ok {
			regressions++
			fmt.Printf("REGRESSION %s: missing from current run\n", b.Name)
			continue
		}
		for _, gate := range gates {
			was, okB := b.Metrics[gate.metric]
			now, okC := c.Metrics[gate.metric]
			if !okB || !okC {
				continue
			}
			if gate.exact {
				if now != was {
					drifts++
					fmt.Printf("REGRESSION %s %s: %v -> %v (deterministic metric drifted)\n",
						b.Name, gate.metric, was, now)
				}
				continue
			}
			ref := max(was, gate.floor) // don't turn a near-zero baseline into an infinite ratio
			if ref == 0 {
				continue
			}
			ratio := now / ref
			tag := "ok        "
			if ratio > *factor {
				regressions++
				tag = "REGRESSION"
			}
			fmt.Printf("%s %s %s: %.0f -> %.0f (%.2fx, allowed %.gx)\n",
				tag, b.Name, gate.metric, was, now, ratio, *factor)
		}
	}
	if drifts > 0 {
		return fmt.Errorf("%d deterministic metric(s) drifted against %s", drifts, *committed)
	}
	if regressions > 0 {
		if *warn {
			fmt.Printf("WARN: %d regression(s) against %s (warn-only mode)\n", regressions, *committed)
			return nil
		}
		return fmt.Errorf("%d regression(s) against %s", regressions, *committed)
	}
	fmt.Println("no regressions")
	return nil
}

// gate is one metric comparison rule. A non-exact gate regresses when the
// current value exceeds factor × the (floored) baseline.
type gate struct {
	metric string
	// exact: the metric is deterministic; any drift regresses.
	exact bool
	// floor clamps the baseline up before the ratio: a zero-allocation
	// baseline tolerates up to factor × floor absolute.
	floor float64
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
