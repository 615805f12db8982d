// Package testutil holds the helpers behind the end-to-end CLI golden
// tests — stdout capture for in-process main-wrapper invocations, and golden
// file comparison with an -update flag — and the message transcripts the
// algorithm determinism tests compare.
package testutil

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// update is shared by every golden test: `go test ./cmd/... -update`
// rewrites the golden files from current output.
var update = flag.Bool("update", false, "rewrite golden files from current output")

// CaptureStdout runs fn with os.Stdout redirected into a pipe and returns
// everything fn wrote. The CLIs print through fmt.Printf, so running their
// run(args) entry points under CaptureStdout exercises the exact production
// code path including flag plumbing.
func CaptureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outCh := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		outCh <- string(b)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-outCh
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput so far:\n%s", ferr, out)
	}
	return out
}

// Golden compares got against testdata/<name>.golden, rewriting the file
// under -update. The diff shown on mismatch is the full pair — CLI outputs
// are small.
func Golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -update`): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (run `go test -update` if intentional):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
