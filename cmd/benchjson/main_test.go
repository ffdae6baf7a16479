package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
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

// twoRuns holds a BenchmarkRun in each of two packages, as the gossip
// and DHT engines both have one.
const twoRuns = `goos: linux
goarch: amd64
pkg: repro/internal/gossip
cpu: Test CPU
BenchmarkRun-2   	       2	 600000000 ns/op	  842456 B/op	     221 allocs/op
PASS
ok  	repro/internal/gossip	3.1s
goos: linux
goarch: amd64
pkg: repro/internal/dht
cpu: Test CPU
BenchmarkRun-2   	       9	 122762070 ns/op	 1720168 B/op	     986 allocs/op
PASS
ok  	repro/internal/dht	2.2s
`

// TestCheckNamesBenchmarkByPackage: -check compares the benchmark of
// the package a <pkg>.<Name> spec names, whichever package comes first,
// and refuses a bare name that two packages share rather than compare
// whichever one came first.
func TestCheckNamesBenchmarkByPackage(t *testing.T) {
	baseline := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := run([]string{"-o", baseline}, strings.NewReader(twoRuns), nil); err != nil {
		t.Fatal(err)
	}
	// The DHT's run grew past the budget; the gossip run did not.
	grown := strings.Replace(twoRuns, "986 allocs/op", "1200 allocs/op", 1)
	for _, c := range []struct {
		spec, wantErr, wantLine string
	}{
		{"repro/internal/gossip.BenchmarkRun", "", "repro/internal/gossip.BenchmarkRun allocs/op: 221 vs baseline 221"},
		{"repro/internal/dht.BenchmarkRun", "repro/internal/dht.BenchmarkRun allocs/op regressed", "allocs/op: 1200 vs baseline 986"},
		{"BenchmarkRun", "BenchmarkRun is in both repro/internal/gossip and repro/internal/dht", ""},
		{"repro/internal/core.BenchmarkRun", "has no repro/internal/core.BenchmarkRun result", ""},
	} {
		var sb strings.Builder
		err := run([]string{"-check", baseline, "-benchmark", c.spec}, strings.NewReader(grown), &sb)
		if c.wantErr == "" && err != nil {
			t.Fatalf("%s: check failed: %v\n%s", c.spec, err, sb.String())
		}
		if c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)) {
			t.Fatalf("%s: got error %v, want one about %q\n%s", c.spec, err, c.wantErr, sb.String())
		}
		if !strings.Contains(sb.String(), c.wantLine) {
			t.Fatalf("%s: no line %q in:\n%s", c.spec, c.wantLine, sb.String())
		}
	}
}

// TestRevisionNamesTheTree holds the revision stamp against a temporary
// repository: a clean tree is its commit, a dirty one its commit plus a
// hash of the diff against it (so two edits of one commit differ), and
// no repository or no git gives no revision.
func TestRevisionNamesTheTree(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	// Keep the parent directories, and the user's and the system's git
	// configuration, out of the temporary repository.
	t.Setenv("GIT_CEILING_DIRECTORIES", filepath.Dir(dir))
	t.Setenv("GIT_CONFIG_GLOBAL", os.DevNull)
	t.Setenv("GIT_CONFIG_NOSYSTEM", "1")
	git := func(args ...string) []byte {
		t.Helper()
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("git %v: %v", args, err)
		}
		return out
	}
	write := func(body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, "f.txt"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if rev := revision(dir); rev != "" {
		t.Fatalf("revision outside a repository = %q, want none", rev)
	}
	git("init", "-q")
	write("one\n")
	git("add", "f.txt")
	git("-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-q", "-m", "one")
	head := strings.TrimSpace(string(git("rev-parse", "--short", "HEAD")))
	if rev := revision(dir); rev != head {
		t.Fatalf("clean tree: revision %q, want the commit %q", rev, head)
	}

	write("two\n")
	sum := sha256.Sum256(git("diff", "--no-ext-diff", "--binary", "HEAD"))
	want := head + "-dirty-" + hex.EncodeToString(sum[:])[:12]
	dirty := revision(dir)
	if dirty != want {
		t.Fatalf("dirty tree: revision %q, want %q", dirty, want)
	}
	write("three\n")
	if rev := revision(dir); rev == dirty || !strings.HasPrefix(rev, head+"-dirty-") {
		t.Fatalf("another edit of the same commit: revision %q beside %q", rev, dirty)
	}

	// -revision prints the stamp of the directory it runs in.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	var sb strings.Builder
	if err := run([]string{"-revision"}, nil, &sb); err != nil || sb.String() != revision(dir)+"\n" {
		t.Fatalf("-revision printed %q (error %v), want %q", sb.String(), err, revision(dir))
	}

	t.Setenv("PATH", "")
	if rev := revision(dir); rev != "" {
		t.Fatalf("revision without git = %q, want none", rev)
	}
}
