// Command benchcmp gates benchmark regressions: it compares a fresh
// cmd/benchjson document against a committed baseline and fails when a gated
// metric regresses by more than the given factor.
//
// Two baseline kinds are understood, selected by -kind:
//
//   - service (default, baseline BENCH_service.json): gates p50-ns (median
//     latency, regressed when current > factor × baseline), delta-p50-ns
//     (the subscribe workload's commit-to-subscriber fan-out latency, same
//     direction), req/s (throughput, regressed when current < baseline /
//     factor), and the allocation metrics B/op and allocs/op (regressed when
//     current > factor × baseline). Allocation gates and delta-p50-ns use a
//     floor — the baseline is clamped up (a few allocations; 1ms of fan-out
//     latency) before the ratio is taken — so a zero- or near-zero baseline
//     doesn't turn one stray allocation or a fast machine's sub-millisecond
//     fan-out into an infinite ratio. recovery-ns (WAL replay wall clock of
//     the crash-recovery benchmark) gates like a latency, with a 1ms floor;
//   - runtime (baseline BENCH_runtime.json): gates ns/op the same way p50-ns
//     gates latency. The deterministic LOCAL-model metrics (rounds, msgBytes,
//     colors, ...) must match exactly — a changed round count is a semantics
//     change, not noise, so it regresses at any -factor.
//
// Other shared metrics are printed for context but do not gate — tail
// latency and cache rates are too noisy on shared CI runners to block on. A
// benchmark present in the baseline but missing from the current run is a
// regression (the workload silently stopped being measured).
//
// Usage:
//
//	go run ./cmd/benchcmp -committed BENCH_service.json -current new.json
//	go run ./cmd/benchcmp -kind runtime -committed BENCH_runtime.json -current new.json
//	go run ./cmd/benchcmp -factor 3 -warn ...   # report noise-prone gates only (CI)
//
// -warn downgrades the wall-clock and allocation gates to a report, for
// runners too noisy to block on. It never downgrades an exact gate: a
// drifted rounds/msgBytes/colors/colors-used value fails the run either way.
//
// scripts/bench_check.sh and scripts/bench_runtime_check.sh wire this behind
// quick benchmark passes.
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

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	var (
		kind      = fs.String("kind", "service", "baseline kind: service (gates p50-ns, req/s) or runtime (gates ns/op, exact LOCAL metrics)")
		committed = fs.String("committed", "", "baseline benchjson document (default BENCH_<kind>.json)")
		current   = fs.String("current", "", "fresh benchjson document to gate")
		factor    = fs.Float64("factor", 3, "allowed regression factor on gated metrics")
		warn      = fs.Bool("warn", false, "report wall-clock and allocation regressions without failing (CI smoke); exact-metric drift still fails")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var gates []gate
	switch *kind {
	case "service":
		gates = []gate{
			{metric: "p50-ns", upIsBad: true},
			{metric: "delta-p50-ns", upIsBad: true, floor: 1e6},
			{metric: "recovery-ns", upIsBad: true, floor: 1e6},
			{metric: "req/s"},
			{metric: "B/op", upIsBad: true, floor: 512},
			{metric: "allocs/op", upIsBad: true, floor: 4},
			// The measured palette is deterministic — a change is an
			// algorithm change, not noise, so it gates exactly.
			{metric: "colors-used", exact: true},
		}
	case "runtime":
		gates = []gate{{metric: "ns/op", upIsBad: true}}
		for _, m := range exactRuntimeMetrics {
			gates = append(gates, gate{metric: m, exact: true})
		}
	default:
		return fmt.Errorf("unknown -kind %q (want service or runtime)", *kind)
	}
	if *committed == "" {
		*committed = "BENCH_" + *kind + ".json"
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
			ref := was
			if gate.upIsBad && ref < gate.floor {
				ref = gate.floor // don't turn a near-zero baseline into an infinite ratio
			}
			if ref == 0 {
				continue
			}
			ratio := now / ref
			bad := (gate.upIsBad && ratio > *factor) || (!gate.upIsBad && ratio < 1 / *factor)
			tag := "ok        "
			if bad {
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

// gate is one metric comparison rule.
type gate struct {
	metric string
	// upIsBad: larger-than-baseline is the regression direction (latency).
	// When false, smaller is (throughput).
	upIsBad bool
	// exact: the metric is deterministic; any drift regresses.
	exact bool
	// floor clamps the baseline up before the ratio (upIsBad gates only):
	// a zero-allocation baseline tolerates up to factor × floor absolute.
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
