// Package analysis is the scaffolding for guess-lint, the repo's
// custom static-analysis suite. It is a minimal, dependency-free
// reimplementation of the golang.org/x/tools/go/analysis vocabulary
// (Analyzer, Pass, diagnostics) so the analyzers under
// internal/analysis/... can be written in the standard shape without
// pulling a module dependency into an otherwise stdlib-only repo; if
// x/tools ever becomes available the analyzers port mechanically.
//
// The suite machine-enforces two sets of conventions. In the
// deterministic simulation packages, those that keep seeded runs
// bit-deterministic (see DESIGN.md, "Determinism rules"): no wall clock
// or global math/rand (detrand), no map-iteration order reaching
// observable output (maporder), simrng named-stream discipline
// (rngstream), and literal, documented, once-registered obs metric
// names (obsname, which runs everywhere). In the concurrent node and
// orchestration packages, the concurrency rules (DESIGN.md §5): typed
// atomics instead of sync/atomic function calls (atomicfield), fields
// accessed under the mutex that guards them (lockguard), a bounded exit
// for every goroutine (goroexit), and wire-decoded lengths bounded
// before allocation (wirebound).
//
// Findings are suppressed with an explicit, reasoned annotation:
//
//	//lint:<directive> <reason>
//
// on the offending line or the line directly above it. The reason is
// mandatory — a bare directive does not suppress and is itself
// reported — so every exception to a determinism rule records why it
// is safe.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. Run is invoked once per
// loaded package and reports findings through the Pass.
type Analyzer struct {
	Name string // short lowercase identifier, e.g. "detrand"
	Doc  string // one-paragraph description of what it enforces
	Run  func(*Pass) error
}

// A Finding is one diagnostic produced by an analyzer, resolved to a
// file position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// A Pass carries one type-checked package to an analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Path      string // canonical import path (test-variant suffix stripped)
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Prog is the interprocedural view over every package in the run
	// (call graph and per-function summaries; see callgraph.go).
	Prog *Program

	report      func(Finding)
	suppression map[string][]*directive // file name -> directives in the file
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// directive is one parsed //lint: comment.
type directive struct {
	name     string // e.g. "maporder-ok"
	reason   string // text after the directive; must be non-empty
	pos      token.Position
	line     int
	reported bool // reason-missing complaint already emitted
	used     bool // suppressed at least one finding (or stopped taint)
}

// Suppressed reports whether a finding at pos is suppressed by a
// //lint:<name> <reason> comment on the same line or the line directly
// above. A directive with no reason never suppresses; instead the
// missing reason is reported (once) so suppressions cannot silently
// rot into unexplained exceptions.
func (p *Pass) Suppressed(pos token.Pos, name string) bool {
	position := p.Fset.Position(pos)
	for _, d := range p.suppression[position.Filename] {
		if d.name != name || (d.line != position.Line && d.line != position.Line-1) {
			continue
		}
		if d.reason == "" {
			if !d.reported {
				d.reported = true
				p.report(Finding{
					Analyzer: p.Analyzer.Name,
					Pos:      position,
					Message:  fmt.Sprintf("suppression //lint:%s needs a reason explaining why the exception is safe", name),
				})
			}
			continue
		}
		d.used = true
		return true
	}
	return false
}

// parseDirectives extracts //lint: comments from a file, keyed for
// same-line / line-above lookup.
func parseDirectives(fset *token.FileSet, f *ast.File) []*directive {
	var out []*directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:")
			if !ok {
				continue
			}
			name, reason, _ := strings.Cut(text, " ")
			pos := fset.Position(c.Pos())
			out = append(out, &directive{
				name:   name,
				reason: strings.TrimSpace(reason),
				pos:    pos,
				line:   pos.Line,
			})
		}
	}
	return out
}

// deterministicPkgs are the packages whose behavior must be a pure
// function of Params.Seed: the simulation engine and every substrate
// it draws on, plus the observability layer whose exposition must stay
// byte-stable. Wall-clock time, global RNGs, and map-iteration order
// reaching output are forbidden here. node/, cmd/, and examples/ are
// exempt: a live peer legitimately reads the wall clock.
// internal/simrng is also exempt — it is the RNG these rules point
// everyone else at.
var deterministicPkgs = map[string]bool{
	"repro/internal/core":     true,
	"repro/internal/policy":   true,
	"repro/internal/cache":    true,
	"repro/internal/eventq":   true,
	"repro/internal/dist":     true,
	"repro/internal/lifetime": true,
	"repro/internal/content":  true,
	"repro/internal/workload": true,
	"repro/internal/overlay":  true,
	"repro/internal/gnutella": true,
	"repro/internal/gossip":   true,
	"repro/internal/dht":      true,
	"repro/internal/obs":      true,
	// orchestrate must keep distributed results byte-identical to
	// local ones; its only wall-clock use (the worker liveness
	// watchdog) carries a reasoned suppression.
	"repro/internal/orchestrate": true,
	// internal/frame is pure byte layout (length + CRC framing shared
	// by orchestrate and node/cluster): no clock, no RNG, no maps —
	// binding it costs nothing and keeps the wire format seed-stable.
	"repro/internal/frame": true,

	// node/cluster is deliberately NOT in this set, like the rest of
	// node/: the harness backs off on real time, the sync client
	// jitters its push interval off the wall clock, and salt epochs
	// are minted from time.Now — all load-bearing uses of
	// nondeterminism in a live robustness layer. Its tests pin
	// determinism where it matters (snapshot bytes, dedupe, epoch
	// ordering) with injected clocks instead.
}

// IsDeterministic reports whether the import path names a package
// bound by the determinism rules. External test packages ("foo_test")
// inherit their subject package's obligations, because golden-file
// tests are exactly where order instability becomes a flaky diff.
func IsDeterministic(path string) bool {
	return deterministicPkgs[strings.TrimSuffix(path, "_test")]
}

// concurrentPkgs are the packages bound by the concurrency-discipline
// rules (atomicfield, lockguard, goroexit, wirebound): the live node
// and everything it shares goroutines, mutexes, and wire decoders with.
// The simulation stack is single-goroutine (internal/core starts no
// goroutine) and stays out; cmd/ mains are thin wiring over these
// layers.
var concurrentPkgs = map[string]bool{
	"repro/node":                 true,
	"repro/node/cluster":         true,
	"repro/node/memnet":          true,
	"repro/internal/orchestrate": true,
	"repro/internal/obs":         true,
	"repro/internal/frame":       true,
	// internal/wire is single-goroutine but is the node's datagram
	// decoder: wirebound's length-bounding rule applies there.
	"repro/internal/wire": true,
}

// IsConcurrent reports whether the import path names a package bound
// by the concurrency-discipline rules. Test variants inherit the
// subject package's obligations, though the concurrency analyzers skip
// _test.go files themselves (tests are single-goroutine unless they
// spawn, and the race detector covers them in `make race`).
func IsConcurrent(path string) bool {
	return concurrentPkgs[strings.TrimSuffix(path, "_test")]
}

// IsTestFile reports whether f was parsed from a _test.go file. The
// concurrency analyzers skip test files: tests are single-goroutine
// unless they spawn, and `make race` covers the ones that do.
func IsTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// SuppressionCheck is the analyzer name under which the framework
// reports stale suppressions: a //lint: directive that suppressed
// nothing in the whole run has rotted (the finding it silenced is gone,
// or the directive never matched one) and is itself a finding, so the
// suppression inventory cannot accumulate dead entries.
const SuppressionCheck = "suppression"

// Run applies each analyzer to each package and returns the combined
// findings sorted by position then analyzer, so output is stable for
// golden comparisons and CI logs. Before the analyzers run, the whole
// package set is folded into one Program (call graph + per-function
// summaries) shared by every Pass. After all analyzers have run,
// directives that suppressed nothing are reported (see
// SuppressionCheck).
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	suppression := make(map[string][]*directive)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			suppression[name] = parseDirectives(pkg.Fset, f)
		}
	}
	prog := buildProgram(pkgs, suppression)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:    a,
				Path:        pkg.Path,
				Fset:        pkg.Fset,
				Files:       pkg.Files,
				Pkg:         pkg.Types,
				TypesInfo:   pkg.TypesInfo,
				Prog:        prog,
				suppression: suppression,
				report:      func(f Finding) { findings = append(findings, f) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, dirs := range suppression {
		for _, d := range dirs {
			if d.used || d.reported {
				continue
			}
			findings = append(findings, Finding{
				Analyzer: SuppressionCheck,
				Pos:      d.pos,
				Message: fmt.Sprintf(
					"unused suppression //lint:%s: no finding here to suppress; delete the stale annotation",
					d.name),
			})
		}
	}
	sortFindings(findings)
	return findings, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
