// Package detrand implements the guess-lint analyzer that keeps
// nondeterministic inputs — the wall clock and ambient RNGs — out of
// the simulation packages.
//
// A seeded run is only reproducible if every input is a function of
// Params.Seed. One time.Now() in a policy, or one draw from the
// auto-seeded math/rand globals, silently desynchronizes runs in a way
// no unit test catches until a golden file flakes. Inside the
// deterministic packages (see analysis.IsDeterministic) this analyzer
// forbids:
//
//   - wall-clock reads and timers: time.Now, time.Since, time.Until,
//     time.Sleep, time.After, time.Tick, time.NewTimer, time.NewTicker,
//     time.AfterFunc (simulations use eventq's virtual clock; types
//     like time.Duration remain fine);
//   - the global math/rand and math/rand/v2 functions (rand.Intn,
//     rand.Shuffle, ...), which share hidden auto-seeded state;
//     explicitly seeded local generators (rand.New(rand.NewSource(s)))
//     are allowed, though simrng streams are the house idiom;
//   - any use of crypto/rand, which is nondeterministic by design.
//
// The check is interprocedural: a call from a deterministic package to
// a helper in an exempt package whose summary reaches the wall clock or
// an ambient RNG (see FuncFacts) is reported at the call site, so
// wrapping time.Now in a util function does not launder it in. Tainted
// calls within the deterministic set itself are not re-reported at
// call sites — the source line already carries its own finding.
//
// Escape hatch: //lint:wallclock-ok <reason> on the offending line or
// the line above.
package detrand

import (
	"go/ast"

	"repro/internal/analysis"
)

// Suppress is the //lint: directive that silences this analyzer.
const Suppress = "wallclock-ok"

// Analyzer is the detrand analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "forbid wall-clock time and ambient RNGs in deterministic simulation packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsDeterministic(pass.Path) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkSource(pass, n)
			case *ast.CallExpr:
				checkTaintedCall(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkSource reports a selector that reads a nondeterministic input
// directly (see analysis.NondetSource).
func checkSource(pass *analysis.Pass, sel *ast.SelectorExpr) {
	kind, desc := analysis.NondetSource(pass.TypesInfo, sel)
	if kind == analysis.Deterministic || pass.Suppressed(sel.Pos(), Suppress) {
		return
	}
	switch kind {
	case analysis.WallClock:
		pass.Reportf(sel.Pos(),
			"%s reads the wall clock, which desynchronizes seeded runs; use the event queue's virtual time, or annotate //lint:%s <reason>",
			desc, Suppress)
	case analysis.GlobalRand:
		pass.Reportf(sel.Pos(),
			"global %s draws from hidden auto-seeded state; draw from a named simrng stream (or a locally seeded generator), or annotate //lint:%s <reason>",
			desc, Suppress)
	case analysis.CryptoRand:
		pass.Reportf(sel.Pos(),
			"crypto/rand is nondeterministic by design and must not reach simulation code; use simrng, or annotate //lint:%s <reason>",
			Suppress)
	}
}

// checkTaintedCall reports a call whose callee lives outside the
// deterministic set but whose interprocedural summary reaches a
// nondeterministic input. Callees inside the deterministic set are
// skipped: their source lines are reported directly by checkSource.
func checkTaintedCall(pass *analysis.Pass, call *ast.CallExpr) {
	callee := analysis.CalleeOf(pass.TypesInfo, call)
	if callee == nil {
		return
	}
	node := pass.Prog.FuncOf(callee)
	if node == nil || analysis.IsDeterministic(node.Pkg.Path) {
		return
	}
	f := &node.Facts
	kind := analysis.WallClock
	for kind < analysis.CryptoRand && !f.Nondet[kind].IsValid() {
		kind++
	}
	if !f.Nondet[kind].IsValid() || pass.Suppressed(call.Pos(), Suppress) {
		return
	}
	switch kind {
	case analysis.WallClock:
		pass.Reportf(call.Pos(),
			"call reaches the wall clock (%s), which desynchronizes seeded runs; use the event queue's virtual time, or annotate //lint:%s <reason>",
			f.NondetDesc[kind], Suppress)
	case analysis.GlobalRand:
		pass.Reportf(call.Pos(),
			"call reaches the global math/rand state (%s); draw from a named simrng stream, or annotate //lint:%s <reason>",
			f.NondetDesc[kind], Suppress)
	case analysis.CryptoRand:
		pass.Reportf(call.Pos(),
			"call reaches crypto/rand (%s), which is nondeterministic by design; use simrng, or annotate //lint:%s <reason>",
			f.NondetDesc[kind], Suppress)
	}
}
