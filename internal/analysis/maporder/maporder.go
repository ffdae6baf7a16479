// Package maporder implements the guess-lint analyzer that stops Go's
// randomized map-iteration order from reaching observable state in the
// deterministic simulation packages.
//
// Map order leaking into Results, CSV traces, or Prometheus exposition
// breaks byte-stable goldens — usually rarely enough to pass review and
// flake weeks later. Inside the deterministic packages (see
// analysis.IsDeterministic) every `for ... range m` over a map must be
// one of:
//
//   - provably order-insensitive: the body only accumulates with
//     commutative updates (x++, x--, x += ..., |=, &=, ^=), deletes
//     from a map, or keeps a max/min via `if v > best { best = v }`
//     (including guarded accumulators and constant flag sets);
//   - the sorted-keys idiom: the body only appends the key (or value)
//     to a slice that is sorted by the statement immediately after the
//     loop, after which iterating the slice is deterministic;
//   - annotated //lint:maporder-ok <reason> when order-insensitivity
//     holds for reasons the analyzer cannot prove (for example a
//     lookup that can match at most one entry).
//
// The check is interprocedural: ranging over maps.Keys(m), over
// slices.Collect(maps.Keys(m)), or over a call to a helper that returns
// an unsorted map-derived slice (see FuncFacts.MapOrderedReturn) is
// ranging over a map, so extracting the key collection into a helper
// does not launder the order away. Labels in front of the range
// statement are looked through.
package maporder

import (
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Suppress is the //lint: directive that silences this analyzer.
const Suppress = "maporder-ok"

// Analyzer is the maporder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration whose order can reach observable state in deterministic packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsDeterministic(pass.Path) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			default:
				return true
			}
			for i, stmt := range list {
				// A label in front of a range does not change its order.
				if lab, ok := stmt.(*ast.LabeledStmt); ok {
					stmt = lab.Stmt
				}
				rng, ok := stmt.(*ast.RangeStmt)
				if !ok {
					continue
				}
				source, ordered := pass.Prog.MapOrderedSource(pass.TypesInfo, rng.X)
				if !ordered {
					continue
				}
				if orderInsensitive(pass, rng.Body.List) {
					continue
				}
				if isSortedKeysIdiom(pass, rng, list[i+1:]) {
					continue
				}
				if pass.Suppressed(rng.Pos(), Suppress) {
					continue
				}
				via := ""
				if source != "map" {
					via = " (order laundered through " + source + ")"
				}
				pass.Reportf(rng.Pos(),
					"map iteration order%s can reach observable state and break byte-stable output; iterate sorted keys (append + sort immediately after), restrict the body to commutative accumulators, or annotate //lint:%s <reason>",
					via, Suppress)
			}
			return true
		})
	}
	return nil
}

// orderInsensitive reports whether every statement in body commutes
// across iterations, so the loop's effect is independent of visit
// order.
func orderInsensitive(pass *analysis.Pass, body []ast.Stmt) bool {
	for _, s := range body {
		if !insensitiveStmt(pass, s) {
			return false
		}
	}
	return true
}

func insensitiveStmt(pass *analysis.Pass, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.EmptyStmt:
		return true
	case *ast.AssignStmt:
		return insensitiveAssign(pass, s, nil)
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		return ok && isBuiltin(pass, call, "delete")
	case *ast.IfStmt:
		// Guarded accumulation: no else branch, no init statement, and
		// a side-effect-free condition. The body may hold accumulator
		// statements, plus plain assignments in the max/min shape
		// (target appears in the comparison) or of constants (flags).
		if s.Else != nil || s.Init != nil || containsCall(pass, s.Cond) {
			return false
		}
		cond, isCompare := s.Cond.(*ast.BinaryExpr)
		if isCompare {
			switch cond.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
			default:
				isCompare = false
			}
		}
		for _, inner := range s.Body.List {
			if a, ok := inner.(*ast.AssignStmt); ok && isCompare && insensitiveAssign(pass, a, cond) {
				continue
			}
			if !insensitiveStmt(pass, inner) {
				return false
			}
		}
		return true
	}
	return false
}

// insensitiveAssign reports whether the assignment commutes across
// iterations: a compound accumulator (+=, -=, *=, |=, &=, ^=) with a
// call-free right-hand side, a plain assignment of a constant, or —
// when cond is the enclosing comparison — a plain assignment whose
// target is one of the comparison's operands (the max/min idiom).
func insensitiveAssign(pass *analysis.Pass, a *ast.AssignStmt, cond *ast.BinaryExpr) bool {
	for _, rhs := range a.Rhs {
		if containsCall(pass, rhs) {
			return false
		}
	}
	switch a.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		return true
	case token.ASSIGN:
		if len(a.Lhs) != 1 || len(a.Rhs) != 1 {
			return false
		}
		if tv, ok := pass.TypesInfo.Types[a.Rhs[0]]; ok && tv.Value != nil {
			return true // setting a constant: same result whichever iteration wins
		}
		if cond != nil {
			lhs := exprString(pass.Fset, a.Lhs[0])
			return exprString(pass.Fset, cond.X) == lhs || exprString(pass.Fset, cond.Y) == lhs
		}
	}
	return false
}

// isSortedKeysIdiom recognizes
//
//	for k := range m { s = append(s, k) }
//	sort.Xxx(s)            // or slices.Sort(s)
//
// where the loop body is exactly one append of the iteration variable
// and the statement immediately after the loop sorts the slice.
func isSortedKeysIdiom(pass *analysis.Pass, rng *ast.RangeStmt, rest []ast.Stmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || assign.Tok != token.ASSIGN || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltin(pass, call, "append") || len(call.Args) != 2 {
		return false
	}
	target := exprString(pass.Fset, assign.Lhs[0])
	if exprString(pass.Fset, call.Args[0]) != target {
		return false
	}
	appended := exprString(pass.Fset, call.Args[1])
	iterVar := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name != "_" && id.Name == appended
	}
	if !(rng.Key != nil && iterVar(rng.Key)) && !(rng.Value != nil && iterVar(rng.Value)) {
		return false
	}
	if len(rest) == 0 {
		return false
	}
	next, ok := rest[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	sortCall, ok := next.X.(*ast.CallExpr)
	if !ok || len(sortCall.Args) == 0 {
		return false
	}
	sel, ok := sortCall.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := pass.TypesInfo.Uses[pkg].(*types.PkgName)
	if !ok {
		return false
	}
	switch pkgName.Imported().Path() {
	case "sort", "slices":
	default:
		return false
	}
	return exprString(pass.Fset, sortCall.Args[0]) == target ||
		strings.Contains(exprString(pass.Fset, sortCall.Args[0]), target)
}

func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

func containsCall(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			// len/cap are pure; any other call may observe or mutate
			// order-dependent state.
			if !isBuiltin(pass, call, "len") && !isBuiltin(pass, call, "cap") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// exprString renders an expression for syntactic comparison.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var b strings.Builder
	if err := printer.Fprint(&b, fset, e); err != nil {
		return ""
	}
	return b.String()
}
