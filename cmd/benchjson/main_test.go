package main

import (
	"bufio"
	"strings"
	"testing"
)

// TestParseTrimsProcSuffix: a name carries no GOMAXPROCS suffix, so a
// baseline taken on a host with one CPU count matches a run on another.
func TestParseTrimsProcSuffix(t *testing.T) {
	in := "pkg: repro/internal/dist\n" +
		"BenchmarkEngines/steady/lockstep" + procSuffix + " \t 20\t 21099486 ns/op\t 8.000 rounds\n"
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("parsed %d results, want 1", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Name != "BenchmarkEngines/steady/lockstep" || r.Pkg != "repro/internal/dist" {
		t.Fatalf("name %q pkg %q", r.Name, r.Pkg)
	}
	if r.Runs != 20 || r.Metrics["ns/op"] != 21099486 || r.Metrics["rounds"] != 8 {
		t.Fatalf("result %+v", r)
	}
}
