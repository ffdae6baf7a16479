// Package wirebound implements the guess-lint check that every
// length-prefixed decode bounds the decoded length before allocating.
// The node's wire surfaces (internal/wire datagrams, internal/frame
// stream frames, node/snapshot and the state-sync/orchestrate codecs)
// all read a count or byte length off the network and then make() a
// slice of that size; an unchecked length lets a single hostile
// datagram demand gigabytes. The safe shape is always
//
//	n := binary.BigEndian.Uint32(head)
//	if n > max { return ErrTooLarge }
//	buf := make([]byte, n)
//
// and this analyzer flags make() calls whose size derives from a
// wire-decoded integer with no comparison between decode and
// allocation.
//
// Taint is tracked linearly per function: integers produced by
// encoding/binary decodes, byte-slice indexing, or calls to functions
// the interprocedural summaries mark ReturnsWireInt (e.g. the
// internal/wire reader methods) are tainted; appearing in a comparison
// (an if condition, or a min() clamp) clears the taint.
package wirebound

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Suppress is the //lint: directive that silences a finding.
const Suppress = "wirebound-ok"

// Analyzer flags allocations sized by an unbounded wire-decoded length.
var Analyzer = &analysis.Analyzer{
	Name: "wirebound",
	Doc: "flag make() calls sized by a length decoded from the wire " +
		"without an intervening bound check (unbounded allocation DoS)",
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
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

// checkFunc tracks wire-length taint through one function body in
// source order (a pre-order walk approximates straight-line flow, which
// is the shape every decoder here has).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	tainted := make(map[types.Object]bool)

	// exprTainted reports whether e contains a wire-decoded integer: a
	// tainted local, a decode call, or a byte-slice index.
	exprTainted := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := info.ObjectOf(n); obj != nil && tainted[obj] {
					found = true
				}
			case *ast.CallExpr:
				if analysis.IsWireDecodeCall(pass.Prog, info, n) {
					found = true
				}
			case *ast.IndexExpr:
				if tv, ok := info.Types[n.X]; ok && analysis.IsByteSlice(tv.Type) {
					found = true
				}
			}
			return !found
		})
		return found
	}

	// untaintComparisons clears taint from every local that appears
	// under a comparison operator in e: the code just bounded it.
	untaintComparisons := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch bin.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
				for _, side := range []ast.Expr{bin.X, bin.Y} {
					ast.Inspect(side, func(inner ast.Node) bool {
						if id, ok := inner.(*ast.Ident); ok {
							if obj := info.ObjectOf(id); obj != nil {
								delete(tainted, obj)
							}
						}
						return true
					})
				}
			}
			return true
		})
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Taint flows right to left; a min() clamp or a bounded
			// expression on the right clears it.
			if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
				// n, err := decode(...): the value lands in Lhs[0].
				if setTaint(info, n.Lhs[0], rhsTaint(info, exprTainted, n.Rhs[0]), tainted) {
					return true
				}
			}
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				setTaint(info, n.Lhs[i], rhsTaint(info, exprTainted, rhs), tainted)
			}
		case *ast.IfStmt:
			untaintComparisons(n.Cond)
		case *ast.ForStmt:
			if n.Cond != nil {
				untaintComparisons(n.Cond)
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				untaintComparisons(n.Tag)
			}
			// Each case clause comparing the tainted value bounds it.
			for _, clause := range n.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						ast.Inspect(e, func(inner ast.Node) bool {
							if id, ok := inner.(*ast.Ident); ok {
								if obj := info.ObjectOf(id); obj != nil {
									delete(tainted, obj)
								}
							}
							return true
						})
					}
					if n.Tag != nil && len(cc.List) > 0 {
						ast.Inspect(n.Tag, func(inner ast.Node) bool {
							if id, ok := inner.(*ast.Ident); ok {
								if obj := info.ObjectOf(id); obj != nil {
									delete(tainted, obj)
								}
							}
							return true
						})
					}
				}
			}
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok || id.Name != "make" {
				return true
			}
			if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			for _, size := range n.Args[1:] {
				if !exprTainted(size) {
					continue
				}
				if pass.Suppressed(n.Pos(), Suppress) {
					continue
				}
				pass.Reportf(n.Pos(),
					"allocation sized by a wire-decoded length with no bound check; compare it against a maximum before make(), or //lint:%s with a reason",
					Suppress)
			}
		}
		return true
	})
}

// rhsTaint evaluates whether an assignment source carries wire taint,
// treating a builtin min()/max() clamp as a bound.
func rhsTaint(info *types.Info, exprTainted func(ast.Expr) bool, rhs ast.Expr) bool {
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "min" || id.Name == "max") {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				return false
			}
		}
	}
	return exprTainted(rhs)
}

// setTaint applies or clears taint on an assignment target, returning
// whether the target was an identifier it could track.
func setTaint(info *types.Info, lhs ast.Expr, taint bool, tainted map[types.Object]bool) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.ObjectOf(id)
	if obj == nil {
		return false
	}
	if taint {
		tainted[obj] = true
	} else {
		delete(tainted, obj)
	}
	return true
}
