// Package lockguard implements the guess-lint check that fields of a
// mutex-bearing struct are accessed with the lock held. The guard
// relation is inferred, not declared: a field whose writes mostly
// happen under the struct's mutex (at least two locked writes, and
// strictly more locked than unlocked ones) is taken to be
// lock-protected, and every access that does not hold the lock — reads
// included — is flagged. This catches the classic drift where a new
// method reads n.peers without n.mu because "it's just a read", and the
// escape where a helper method touches guarded fields and is then
// called from a path that never locked.
//
// Lock state is tracked linearly per function, keyed by the base object
// (`s.mu.Lock()` and an embedded `s.Lock()` both mark s locked; a
// deferred unlock keeps the lock held to the end). Two mitigations keep
// inference honest: accesses through a local freshly built from a
// composite literal or new() are exempt (constructors legitimately
// write fields before the value is shared), and a method that never
// locks but is only ever called with the lock held inherits that
// context (the xxxLocked convention) instead of polluting the tallies.
// Function literals start with no lock held — a closure may run on any
// goroutine long after its creation site's critical section ended.
package lockguard

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Suppress is the //lint: directive that silences a finding.
const Suppress = "lockguard-ok"

// Analyzer flags accesses to majority-lock-guarded struct fields made
// without holding the lock.
var Analyzer = &analysis.Analyzer{
	Name: "lockguard",
	Doc: "infer which mutex guards which struct fields from majority " +
		"access sites and flag accesses that do not hold the lock",
	Run: run,
}

// access is one read or write of a candidate field.
type access struct {
	field  *types.Var
	label  string // "Type.field" for diagnostics
	pos    token.Pos
	write  bool
	held   bool
	exempt bool        // through a freshly constructed local
	fn     *types.Func // enclosing declared function; nil in literals
}

func run(pass *analysis.Pass) error {
	if !analysis.IsConcurrent(pass.Path) {
		return nil
	}
	cands := candidateFields(pass.Pkg)
	if len(cands) == 0 {
		return nil
	}

	var accesses []access
	locks := make(map[*types.Func]bool)      // function performs its own locking
	ctxAny := make(map[*types.Func]bool)     // method observed called at least once
	ctxAllHeld := make(map[*types.Func]bool) // ...and every observed call held the lock
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkFunc(pass, fd, cands, &accesses, locks, ctxAny, ctxAllHeld)
		}
	}

	// A method that never locks but whose every observed call site held
	// the lock runs in a locked context (the fooLocked convention).
	inherited := func(fn *types.Func) bool {
		return fn != nil && !locks[fn] && ctxAny[fn] && ctxAllHeld[fn]
	}

	type tally struct{ heldW, unheldW int }
	tallies := make(map[*types.Var]*tally)
	for _, a := range accesses {
		if a.exempt || !a.write {
			continue
		}
		t := tallies[a.field]
		if t == nil {
			t = &tally{}
			tallies[a.field] = t
		}
		if a.held || inherited(a.fn) {
			t.heldW++
		} else {
			t.unheldW++
		}
	}

	for _, a := range accesses {
		if a.exempt || a.held || inherited(a.fn) {
			continue
		}
		t := tallies[a.field]
		if t == nil || t.heldW < 2 || t.heldW <= t.unheldW {
			continue // no locked-write majority: not an inferred guard
		}
		if pass.Suppressed(a.pos, Suppress) {
			continue
		}
		verb := "read"
		if a.write {
			verb = "written"
		}
		pass.Reportf(a.pos,
			"field %s is %s without the lock that guards it (%d locked vs %d unlocked writes elsewhere); hold the mutex or //lint:%s with a reason",
			a.label, verb, t.heldW, t.unheldW, Suppress)
	}
	return nil
}

// candidateFields collects the guardable fields of every package-level
// struct that carries a mutex: plain data siblings, excluding types
// that synchronize themselves (channels, sync.*, sync/atomic.*).
func candidateFields(pkg *types.Package) map[*types.Var]string {
	out := make(map[*types.Var]string)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		hasMutex := false
		for i := range st.NumFields() {
			if isMutexType(st.Field(i).Type()) {
				hasMutex = true
				break
			}
		}
		if !hasMutex {
			continue
		}
		for i := range st.NumFields() {
			f := st.Field(i)
			if isMutexType(f.Type()) || isSelfSynced(f.Type()) {
				continue
			}
			out[f] = name + "." + f.Name()
		}
	}
	return out
}

func isMutexType(t types.Type) bool {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return true
	}
	return false
}

// isSelfSynced reports field types that are safe to touch without the
// struct's mutex: channels (the send/receive is the synchronization)
// and the sync / sync/atomic types that bring their own.
func isSelfSynced(t types.Type) bool {
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	}
	return false
}

// walkFunc records candidate-field accesses, lock operations, and
// same-package method-call contexts for one declared function, tracking
// lock state linearly (pre-order traversal approximates source order,
// which is the shape of every critical section in this repo).
func walkFunc(pass *analysis.Pass, fd *ast.FuncDecl, cands map[*types.Var]string,
	accesses *[]access, locks, ctxAny, ctxAllHeld map[*types.Func]bool) {
	info := pass.TypesInfo
	fnObj, _ := info.Defs[fd.Name].(*types.Func)

	var visit func(body ast.Node, fn *types.Func, held, exempt map[types.Object]bool)
	visit = func(body ast.Node, fn *types.Func, held, exempt map[types.Object]bool) {
		writes := make(map[ast.Expr]bool)
		deferred := make(map[*ast.CallExpr]bool)
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// A literal may run on another goroutine at any later
				// time: no lock state or constructor exemption carries in.
				visit(n.Body, nil, make(map[types.Object]bool), make(map[types.Object]bool))
				return false
			case *ast.BlockStmt:
				markExitUnlocks(info, n.List, deferred)
			case *ast.CaseClause:
				markExitUnlocks(info, n.Body, deferred)
			case *ast.CommClause:
				markExitUnlocks(info, n.Body, deferred)
			case *ast.DeferStmt:
				if lockOp(info, n.Call) == "unlock" {
					deferred[n.Call] = true // held to end of function
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					lhs = ast.Unparen(lhs)
					writes[lhs] = true
					if n.Tok == token.DEFINE && i < len(n.Rhs) && isFreshAlloc(info, ast.Unparen(n.Rhs[i])) {
						if id, ok := lhs.(*ast.Ident); ok {
							if obj := info.Defs[id]; obj != nil {
								exempt[obj] = true
							}
						}
					}
				}
			case *ast.IncDecStmt:
				writes[ast.Unparen(n.X)] = true
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					writes[ast.Unparen(n.X)] = true // address escape: treat as write
				}
			case *ast.CallExpr:
				switch lockOp(info, n) {
				case "lock":
					if obj := callReceiverBase(info, n); obj != nil {
						held[obj] = true
						if fn != nil {
							locks[fn] = true
						}
					}
					return true
				case "unlock":
					if !deferred[n] {
						if obj := callReceiverBase(info, n); obj != nil {
							delete(held, obj)
						}
					}
					return true
				}
				if callee := analysis.CalleeOf(info, n); callee != nil && callee.Pkg() == pass.Pkg {
					if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
						if obj := callReceiverBase(info, n); obj != nil {
							h := held[obj] || exempt[obj]
							if _, seen := ctxAllHeld[callee]; !seen {
								ctxAllHeld[callee] = true
							}
							ctxAny[callee] = true
							if !h {
								ctxAllHeld[callee] = false
							}
						}
					}
				}
			case *ast.SelectorExpr:
				field, ok := info.Uses[n.Sel].(*types.Var)
				if !ok {
					return true
				}
				label, isCand := cands[field]
				if !isCand {
					return true
				}
				base := baseIdent(n.X)
				if base == nil {
					return true
				}
				obj := info.ObjectOf(base)
				if obj == nil {
					return true
				}
				*accesses = append(*accesses, access{
					field:  field,
					label:  label,
					pos:    n.Pos(),
					write:  writes[n],
					held:   held[obj],
					exempt: exempt[obj],
					fn:     fn,
				})
			}
			return true
		})
	}
	visit(fd.Body, fnObj, make(map[types.Object]bool), make(map[types.Object]bool))
}

// markExitUnlocks marks unlock calls whose next statement leaves the
// enclosing scope (`mu.Unlock(); return err` in an early-exit branch).
// Control flow never reaches the code after such a branch with the lock
// released, so the linear tracker must not clear the held state — that
// is exactly the shape that made processPush-style handlers look
// unlocked after their error branches.
func markExitUnlocks(info *types.Info, list []ast.Stmt, deferred map[*ast.CallExpr]bool) {
	for i, stmt := range list {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || lockOp(info, call) != "unlock" {
			continue
		}
		if i+1 < len(list) {
			switch next := list[i+1].(type) {
			case *ast.ReturnStmt:
				deferred[call] = true
			case *ast.BranchStmt:
				if next.Tok == token.BREAK || next.Tok == token.CONTINUE || next.Tok == token.GOTO {
					deferred[call] = true
				}
			}
		}
	}
}

// lockOp classifies a call as a mutex acquire ("lock"), release
// ("unlock"), or neither ("").
func lockOp(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return "lock"
	case "Unlock", "RUnlock":
		return "unlock"
	}
	return ""
}

// callReceiverBase resolves the root identifier's object of a method
// call's receiver chain: s in s.mu.Lock() and in s.flushLocked().
func callReceiverBase(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	base := baseIdent(sel.X)
	if base == nil {
		return nil
	}
	return info.ObjectOf(base)
}

// baseIdent walks a selector chain to its root identifier, or nil if
// the chain passes through anything else (an index, a call).
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isFreshAlloc reports expressions that build a brand-new value — a
// composite literal, &composite, or new(T) — whose fields no other
// goroutine can see yet.
func isFreshAlloc(info *types.Info, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" {
			_, isBuiltin := info.Uses[id].(*types.Builtin)
			return isBuiltin
		}
	}
	return false
}
