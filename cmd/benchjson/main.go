// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout, so benchmark results (ns/op, B/op, allocs/op, and any
// custom b.ReportMetric units such as rounds or msgBytes) can be tracked as
// machine-readable artifacts across commits. scripts/bench.sh uses it to
// emit BENCH_runtime.json.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | go run ./cmd/benchjson
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	// Name is the full benchmark name including sub-benchmarks, without
	// the GOMAXPROCS suffix, e.g. "BenchmarkEngines/steady/sharded".
	Name string `json:"name"`
	// Pkg is the package the benchmark belongs to (the preceding "pkg:"
	// header line), when present.
	Pkg string `json:"pkg,omitempty"`
	// Runs is the iteration count the harness settled on.
	Runs int64 `json:"runs"`
	// Metrics maps unit -> value per op, e.g. "ns/op", "allocs/op",
	// "rounds".
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the whole document.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{Results: []Result{}}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			res.Pkg = pkg
			rep.Results = append(rep.Results, res)
		}
	}
	return rep, sc.Err()
}

// procSuffix is the "-N" go test appends to every benchmark name when
// GOMAXPROCS is N > 1. benchjson runs on the host that just ran the
// benchmarks, so trimming it keeps a name the same on hosts with different
// CPU counts, and so comparable against a committed baseline.
var procSuffix = func() string {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return fmt.Sprintf("-%d", n)
	}
	return ""
}()

// parseBenchLine parses one result line of the standard bench format:
//
//	BenchmarkName-8   	     100	  11514793 ns/op	 7207 B/op	 121 allocs/op
//
// Fields after the iteration count come in (value, unit) pairs.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: strings.TrimSuffix(fields[0], procSuffix), Runs: runs, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		res.Metrics[fields[i+1]] = val
	}
	return res, true
}
