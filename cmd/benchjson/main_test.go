package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Test CPU
BenchmarkSingleRun-8   	       9	 128562358 ns/op	 7207304 B/op	    6326 allocs/op
PASS
ok  	repro	3.456s
`

// TestRunEmitsParsableTrajectory is the acceptance check for `make
// bench-json`: the emitted BENCH_*.json must parse and carry the
// headline ns/op, B/op, allocs/op metrics.
func TestRunEmitsParsableTrajectory(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_20260805.json")
	if err := run([]string{"-o", out}, strings.NewReader(sample), nil); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatalf("trajectory file does not parse: %v\n%s", err, b)
	}
	if rec.Date == "" || rec.Goos != "linux" || rec.CPU != "Test CPU" {
		t.Fatalf("bad envelope: %+v", rec)
	}
	if len(rec.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(rec.Results))
	}
	r := rec.Results[0]
	if r.Name != "BenchmarkSingleRun" || r.NsPerOp != 128562358 ||
		r.BytesPerOp != 7207304 || r.AllocsPerOp != 6326 {
		t.Fatalf("headline metrics missing or wrong: %+v", r)
	}
}

// TestRunStdout checks the default stdout path and stdin input.
func TestRunStdout(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, strings.NewReader(sample), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"allocs_per_op": 6326`) {
		t.Fatalf("stdout output missing metrics:\n%s", sb.String())
	}
}

// TestRunRejectsEmptyInput: an empty trajectory almost always means a
// broken pipeline (wrong -bench regexp, compile failure swallowed by
// the shell); fail loudly instead of writing a useless file.
func TestRunRejectsEmptyInput(t *testing.T) {
	if err := run(nil, strings.NewReader("PASS\n"), nil); err == nil {
		t.Fatal("run accepted input with no benchmarks")
	}
}

// TestCheckGatesAllocsAndBytes is the acceptance check for `make
// bench-check`: fresh output passes against its own record, and fails
// when either allocs/op or B/op has grown past the budget.
func TestCheckGatesAllocsAndBytes(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := run([]string{"-o", baseline}, strings.NewReader(sample), nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, from, to, wantErr string
	}{
		{"same", "6326 allocs/op", "6326 allocs/op", ""},
		{"within budget", "7207304 B/op", "7900000 B/op", ""},
		{"allocs grew", "6326 allocs/op", "7000 allocs/op", "allocs/op regressed"},
		{"bytes grew", "7207304 B/op", "7950000 B/op", "B/op regressed"},
	} {
		var sb strings.Builder
		err := run([]string{"-check", baseline}, strings.NewReader(strings.Replace(sample, c.from, c.to, 1)), &sb)
		if c.wantErr == "" && err != nil {
			t.Fatalf("%s: check failed: %v\n%s", c.name, err, sb.String())
		}
		if c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
			t.Fatalf("%s: got error %v, want one about %q\n%s", c.name, err, c.wantErr, sb.String())
		}
		if !strings.Contains(sb.String(), "BenchmarkSingleRun allocs/op: ") {
			t.Fatalf("%s: no comparison line printed:\n%s", c.name, sb.String())
		}
	}
}
