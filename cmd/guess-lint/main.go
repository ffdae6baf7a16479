// Command guess-lint is the repo's determinism, observability, and
// concurrency-discipline linter: a multichecker for the analyzers under
// internal/analysis (detrand, maporder, rngstream, obsname over the
// deterministic simulation packages; atomicfield, lockguard, goroexit,
// wirebound over the concurrent node/cluster/orchestration packages).
// See the README "Static analysis" section for what each analyzer
// enforces and how to suppress a finding with a reasoned //lint:
// annotation.
//
// Every run loads the named packages as one program, so the
// interprocedural summaries cross package boundaries, and it reports
// stale suppressions: a //lint: directive that no longer silences any
// finding is itself a finding.
//
// Usage (what `make lint` runs):
//
//	go run ./cmd/guess-lint ./...
//
// Arguments are package patterns (default ./...). Exit status: 0
// clean, 1 findings, 2 usage or load error.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicfield"
	"repro/internal/analysis/detrand"
	"repro/internal/analysis/goroexit"
	"repro/internal/analysis/lockguard"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/obsname"
	"repro/internal/analysis/rngstream"
	"repro/internal/analysis/wirebound"
)

// suite returns a fresh analyzer suite; readme is obsname's README
// setting (see obsname.New). obsname is stateful (its
// duplicate-registration check spans packages), so every run gets its
// own instance.
func suite(readme string) []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detrand.Analyzer,
		maporder.Analyzer,
		rngstream.Analyzer,
		obsname.New(readme),
		atomicfield.Analyzer,
		lockguard.Analyzer,
		goroexit.Analyzer,
		wirebound.Analyzer,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	for _, p := range patterns {
		if len(p) > 0 && p[0] == '-' {
			fmt.Fprintf(stderr, "usage: guess-lint [packages]\n")
			return 2
		}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "guess-lint: %v\n", err)
		return 2
	}
	findings, err := analysis.Run(pkgs, suite(""))
	if err != nil {
		fmt.Fprintf(stderr, "guess-lint: %v\n", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "guess-lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
