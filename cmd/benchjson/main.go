// Command benchjson converts `go test -bench` text output into a JSON
// trajectory record, so benchmark history can be diffed and plotted
// across commits:
//
//	go test -run '^$' -bench BenchmarkSingleRun -benchmem . | benchjson -o BENCH_20260805.json
//
// The record carries the machine header (goos/goarch/cpu), the revision
// of the tree it measured when git can say (see revision), and one entry
// per benchmark with ns/op, B/op, and allocs/op. See "Profiling and
// benchmarking" in README.md. With -revision it prints that revision
// and reads nothing, so other recipes can name their output the same
// way.
//
// With -check it compares fresh output against a recorded trajectory
// point instead of writing one, failing when allocations drift:
//
//	go test -run '^$' -bench BenchmarkSingleRun -benchmem . | benchjson -check BENCH_20260805.json
//
// allocs/op and B/op are the checked metrics because they are
// iteration-exact and machine-independent, unlike ns/op; `make
// bench-check` wires this up. -benchmark names each benchmark bare
// (BenchmarkSingleRun) or, where that name is in more than one
// package, with its import path (repro/internal/gossip.BenchmarkRun);
// a bare name found in two packages is an error, not the first match.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/benchfmt"
)

// record is the schema of a BENCH_<date>.json file.
type record struct {
	Date     string `json:"date"`
	Revision string `json:"revision,omitempty"`
	benchfmt.Header
	Results []benchfmt.Result `json:"results"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default stdout)")
	check := fs.String("check", "", "baseline BENCH_<date>.json: compare instead of record")
	benchmark := fs.String("benchmark", "BenchmarkSingleRun", "comma-separated benchmarks to compare with -check: Name, or <pkg>.Name where Name is in more than one package")
	maxRatio := fs.Float64("max-ratio", 1.10, "fail -check when allocs/op or B/op exceeds baseline by this factor")
	printRev := fs.Bool("revision", false, "print the working tree's revision and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *printRev {
		rev := revision("")
		if rev == "" {
			return fmt.Errorf("no git revision here")
		}
		_, err := fmt.Fprintln(stdout, rev)
		return err
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	hdr, results, err := benchfmt.Parse(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines in input")
	}

	if *check != "" {
		for _, name := range strings.Split(*benchmark, ",") {
			if err := checkAgainst(*check, strings.TrimSpace(name), *maxRatio, results, stdout); err != nil {
				return err
			}
		}
		return nil
	}

	rec := record{
		Date:     time.Now().UTC().Format(time.RFC3339),
		Revision: revision(""),
		Header:   hdr,
		Results:  results,
	}

	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *out != "" {
		return os.WriteFile(*out, b, 0o644)
	}
	_, err = stdout.Write(b)
	return err
}

// revision names the tree in dir ("" is the current directory):
// `git describe --always --dirty`, and when the tree is dirty the first
// 12 hex digits of the sha256 of its diff against HEAD after that, so a
// point recorded before its commit names what it measured, not its
// parent. It is empty where git or a repository is missing.
func revision(dir string) string {
	git := func(args ...string) ([]byte, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		return cmd.Output()
	}
	out, err := git("describe", "--always", "--dirty")
	if err != nil {
		return ""
	}
	rev := strings.TrimSpace(string(out))
	if !strings.HasSuffix(rev, "-dirty") {
		return rev
	}
	diff, err := git("diff", "--no-ext-diff", "--binary", "HEAD")
	if err != nil {
		return rev
	}
	sum := sha256.Sum256(diff)
	return rev + "-" + hex.EncodeToString(sum[:])[:12]
}

// checkAgainst compares the named benchmark's allocs/op and B/op in
// results against the recorded baseline, allowing growth up to maxRatio.
// name is a bare benchmark name or <pkg>.<Name> (see findResult).
func checkAgainst(baselinePath, name string, maxRatio float64, results []benchfmt.Result, stdout io.Writer) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var baseline record
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	base, err := findResult(baseline.Results, name, baselinePath)
	if err != nil {
		return err
	}
	fresh, err := findResult(results, name, "input")
	if err != nil {
		return err
	}
	for _, m := range []struct {
		unit        string
		fresh, base float64
	}{
		{"allocs/op", fresh.AllocsPerOp, base.AllocsPerOp},
		{"B/op", fresh.BytesPerOp, base.BytesPerOp},
	} {
		if m.base <= 0 {
			return fmt.Errorf("%s: %s baseline has no %s (recorded without -benchmem?)", baselinePath, name, m.unit)
		}
		ratio := m.fresh / m.base
		fmt.Fprintf(stdout, "%s %s: %.0f vs baseline %.0f (%s, rev %s) = %.3fx (limit %.2fx)\n",
			name, m.unit, m.fresh, m.base, baseline.Date, baseline.Revision, ratio, maxRatio)
		if ratio > maxRatio {
			return fmt.Errorf("%s %s regressed beyond the %.2fx budget", name, m.unit, maxRatio)
		}
	}
	return nil
}

// findResult returns the result that spec names in rs. A bare spec
// (BenchmarkRun) matches that name in any package, and is an error
// when two packages have it; <pkg>.<Name> matches only in pkg. A name
// recorded more than once in its package (-count) is its first run.
func findResult(rs []benchfmt.Result, spec, where string) (benchfmt.Result, error) {
	pkg, name := "", spec
	if !strings.HasPrefix(spec, "Benchmark") {
		if i := strings.Index(spec, ".Benchmark"); i > 0 {
			pkg, name = spec[:i], spec[i+1:]
		}
	}
	var found *benchfmt.Result
	for i, r := range rs {
		if r.Name != name || (pkg != "" && r.Pkg != pkg) {
			continue
		}
		if found == nil {
			found = &rs[i]
		} else if r.Pkg != found.Pkg {
			return benchfmt.Result{}, fmt.Errorf("%s: %s is in both %s and %s; name it <pkg>.%s", where, name, found.Pkg, r.Pkg, name)
		}
	}
	if found == nil {
		return benchfmt.Result{}, fmt.Errorf("%s has no %s result", where, spec)
	}
	return *found, nil
}
