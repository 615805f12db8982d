package lgsim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/graph"
)

// runWithin runs f on its own goroutine and fails the test if it has not
// returned within the deadline, so a hanging simulation is reported instead
// of stalling the suite.
func runWithin(t *testing.T, d time.Duration, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("Run did not return within %v", d)
		return nil
	}
}

// waitGoroutines polls until the goroutine count is back to base, failing
// after a deadline: every hosted virtual vertex must be gone once Run has
// returned.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind (baseline %d)", runtime.NumGoroutine()-base, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestVirtualPanicLeavesNoGoroutines: a panicking virtual vertex aborts the
// run, and the hosted siblings it strands mid-round are unwound rather than
// left parked.
func TestVirtualPanicLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	err := runWithin(t, 10*time.Second, func() error {
		_, err := Run(graph.Cycle(12), 3, func(v dist.Process) int {
			if v.ID()%3 == 0 {
				panic("virtual boom")
			}
			for i := 0; i < 3; i++ {
				v.Round(nil)
			}
			return 0
		})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "virtual boom") {
		t.Fatalf("err = %v, want propagated virtual panic", err)
	}
	waitGoroutines(t, base)
}

// TestOverBudgetIsAnError: a virtual algorithm that runs past the round
// budget is a caller bug reported as a run error, not a hang.
func TestOverBudgetIsAnError(t *testing.T) {
	base := runtime.NumGoroutine()
	err := runWithin(t, 10*time.Second, func() error {
		_, err := Run(graph.Cycle(6), 1, func(v dist.Process) int {
			v.Round(nil)
			v.Round(nil)
			return 0
		})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "needs more than 1 rounds") {
		t.Fatalf("err = %v, want over-budget error", err)
	}
	waitGoroutines(t, base)
}
