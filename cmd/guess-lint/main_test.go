package main

import (
	"bytes"
	"testing"
)

// TestRepoIsLintClean is the regression gate for the determinism,
// observability, and concurrency invariants: guess-lint over the whole
// module must exit clean with all eight analyzers. A new time.Now in a
// simulation package, an unsorted map range on a Results-producing
// path, a stray metric name, a sync/atomic function call, an
// unguarded write to a mutex-protected field, a goroutine with no exit
// path, an unbounded wire allocation, or a stale suppression — any of
// these turns up here as a test failure with the finding in the
// output.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide lint loads every package; skipped in -short")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"repro/..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("guess-lint repro/... exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() > 0 {
		t.Fatalf("guess-lint repro/... reported findings:\n%s", stdout.String())
	}
}

// TestUsageError checks that unknown flags are a usage error, not a
// package pattern.
func TestUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nonsense", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}
