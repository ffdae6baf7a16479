// Package rngstream implements the guess-lint analyzer that enforces
// the repo's simrng discipline in deterministic packages.
//
// internal/simrng keeps seeded runs reproducible by deriving every
// component's randomness from a named sub-stream: Stream("churn") is
// stable no matter how many draws other components make. That property
// only holds while call sites keep the discipline, so this analyzer
// checks:
//
//   - every Stream(name) call passes a compile-time string constant, so
//     the set of stream names is a static, reviewable inventory and a
//     stream cannot silently fork per run;
//   - no seeding a new generator from a sibling stream's output
//     (simrng.New(r.Uint64()) and friends): the child's entire
//     sequence would depend on how many draws preceded it — exactly
//     the coupling Stream exists to prevent;
//   - no exported struct fields of type simrng.RNG / *simrng.RNG: an
//     exported field invites sharing one stream across components,
//     which entangles their draw sequences.
//
// Escape hatch: //lint:rngstream-ok <reason>.
package rngstream

import (
	"go/ast"
	"go/constant"
	"go/types"

	"repro/internal/analysis"
)

// Suppress is the //lint: directive that silences this analyzer.
const Suppress = "rngstream-ok"

const simrngPath = "repro/internal/simrng"

// Analyzer is the rngstream analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "rngstream",
	Doc:  "enforce simrng named-stream discipline in deterministic packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsDeterministic(pass.Path) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.StructType:
				checkStruct(pass, n)
			}
			return true
		})
	}
	return nil
}

// simrngFunc resolves call's callee if it is a function or method from
// internal/simrng.
func simrngFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != simrngPath {
		return nil
	}
	return fn
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := simrngFunc(pass, call)
	if fn == nil {
		return
	}
	isMethod := fn.Type().(*types.Signature).Recv() != nil
	switch {
	case isMethod && fn.Name() == "Stream":
		if len(call.Args) != 1 {
			return
		}
		tv, ok := pass.TypesInfo.Types[call.Args[0]]
		if ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			return // compile-time constant name: the discipline
		}
		if !pass.Suppressed(call.Pos(), Suppress) {
			pass.Reportf(call.Pos(),
				"Stream name must be a compile-time string constant so sub-streams form a stable, reviewable inventory; annotate //lint:%s <reason> if a dynamic name is genuinely safe",
				Suppress)
		}
	case !isMethod && fn.Name() == "New":
		for _, arg := range call.Args {
			if drawsFromRNG(pass, arg) && !pass.Suppressed(call.Pos(), Suppress) {
				pass.Reportf(call.Pos(),
					"seeding a generator from a sibling stream's output couples its sequence to the sibling's draw count; derive the stream with Stream(name), or annotate //lint:%s <reason>",
					Suppress)
			}
		}
	}
}

// drawsFromRNG reports whether e contains a call to any simrng.RNG
// method — i.e. the expression consumes randomness from an existing
// stream.
func drawsFromRNG(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := simrngFunc(pass, call); fn != nil && fn.Type().(*types.Signature).Recv() != nil {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func checkStruct(pass *analysis.Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if !isRNGType(pass, field.Type) {
			continue
		}
		for _, name := range field.Names {
			if name.IsExported() && !pass.Suppressed(name.Pos(), Suppress) {
				pass.Reportf(name.Pos(),
					"exported simrng.RNG field shares one stream across components, entangling their draw sequences; keep streams unexported and derive one per component, or annotate //lint:%s <reason>",
					Suppress)
			}
		}
	}
}

// isRNGType reports whether the field type is simrng.RNG or *simrng.RNG.
func isRNGType(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	t := types.Unalias(tv.Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "RNG" && obj.Pkg() != nil && obj.Pkg().Path() == simrngPath
}
