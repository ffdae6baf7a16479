// Package atomicfield implements the guess-lint check that the
// concurrent packages use typed atomics (atomic.Int64, atomic.Uint64,
// atomic.Bool, atomic.Pointer, ...) rather than the sync/atomic
// package-level functions (atomic.AddInt64, atomic.LoadUint64,
// atomic.StoreUint64, atomic.CompareAndSwapInt32, ...).
//
// The functions operate on a plain word that other code can still read
// or write without sync/atomic, and mixing atomic and plain access to
// one word is a latent data race: the plain access is invisible to the
// atomic one, the race detector only catches it on the schedules tests
// happen to take, and on weaker memory models a torn or stale read is a
// real outcome. A typed atomic makes plain access a compile error, so
// flagging every function call keeps the guarantee — no word is
// accessed both atomically and plainly — with a local rule instead of a
// program-wide inventory of atomic call sites.
//
// Escape hatch: //lint:atomicfield-ok <reason>.
package atomicfield

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Suppress is the //lint: directive that silences a finding.
const Suppress = "atomicfield-ok"

// Analyzer flags calls to sync/atomic's package-level functions.
var Analyzer = &analysis.Analyzer{
	Name: "atomicfield",
	Doc: "flag sync/atomic function calls in concurrent packages: a typed " +
		"atomic makes the plain access that would race with them impossible",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsConcurrent(pass.Path) {
		return nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeOf(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" ||
				fn.Type().(*types.Signature).Recv() != nil {
				return true // not a sync/atomic function; typed-atomic methods are the fix
			}
			if !pass.Suppressed(call.Pos(), Suppress) {
				pass.Reportf(call.Pos(),
					"atomic.%s operates on a plain word that other code can read or write without sync/atomic, which races; declare it as a typed atomic (atomic.Int64, atomic.Uint64, ...) so plain access does not compile, or //lint:%s with a reason",
					fn.Name(), Suppress)
			}
			return true
		})
	}
	return nil
}
