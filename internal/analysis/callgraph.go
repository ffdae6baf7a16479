package analysis

// Interprocedural scaffolding: a program-level call graph over every
// loaded package's function declarations (and function literals), with
// per-function fact summaries propagated bottom-up over the strongly-
// connected-component order. The summaries let analyzers reason one or
// more calls deep without x/tools: detrand and maporder use the taint
// facts to catch helpers that launder wall-clock reads or map-iteration
// order across a call boundary, and goroexit and wirebound use the
// structural facts (receives, conn reads, deadlines, decoded-length
// returns). The Program spans every package of the run, so summaries
// cross package boundaries.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FuncFacts is the bottom-up summary of one function (or function
// literal). Taint facts (wall clock, ambient RNGs) record the source
// position and a human-readable description of the originating call so
// call-site diagnostics can point at the root cause; structural facts
// are plain booleans.
type FuncFacts struct {
	// Nondet[k] is a source of nondeterministic input k (see
	// NondetSource) reachable from this function, token.NoPos if none,
	// and NondetDesc[k] describes it ("time.Now via Stamp"). Sites
	// carrying a reasoned //lint:wallclock-ok suppression do not taint:
	// the annotation vouches that the nondeterminism stays contained.
	Nondet     [numNondet]token.Pos
	NondetDesc [numNondet]string

	// MapOrderedReturn reports that the function returns a value whose
	// element order derives from map iteration (unsorted keys/values
	// slices, iter.Seq yields out of a map range, maps.Keys pass-
	// throughs). Ranging over a call to such a function is ranging over
	// a map.
	MapOrderedReturn bool

	// HasReceive reports a channel receive (<-ch, select with receive
	// cases, or range over a channel) reachable from this function —
	// the shape of a bounded goroutine exit path.
	HasReceive bool
	// HasAfterFunc reports a context.AfterFunc registration reachable
	// from this function: the idiom that closes a connection on context
	// cancellation to fail a blocked read.
	HasAfterFunc bool
	// ReadsConn reports a blocking read on a net.Conn reachable from
	// this function (a Read-family method on a net.Conn, io.ReadFull
	// and friends fed a net.Conn, or a reader-consuming helper handed a
	// net.Conn).
	ReadsConn bool
	// ReadsReader reports that the function reads from one of its own
	// io.Reader-like parameters; callers that pass a net.Conn into such
	// a parameter are charged with ReadsConn.
	ReadsReader bool
	// SetsDeadline reports a SetDeadline/SetReadDeadline/
	// SetWriteDeadline call reachable from this function.
	SetsDeadline bool
	// HasUnboundedLoop reports a `for { ... }` loop with no condition,
	// no return, and no break reachable from this function — the shape
	// that keeps a goroutine alive forever unless something else (a
	// channel receive, a failing read) breaks it out.
	HasUnboundedLoop bool

	// ReturnsWireInt reports that the function returns an integer
	// decoded from raw bytes (binary.XxxEndian, byte-slice indexing, or
	// a call to another such decoder) — the taint source wirebound
	// tracks into unbounded allocations.
	ReturnsWireInt bool
}

// A CallEdge is one call site from a function to another function in
// the program.
type CallEdge struct {
	Callee *FuncNode
	Pos    token.Pos
	// PassesConn reports that some argument at this call site is a
	// net.Conn (statically).
	PassesConn bool
	// PassesReader reports that some argument is an interface-typed
	// parameter of the calling function itself — the shape that chains
	// reader consumption up through wrapper helpers (readMsg(r) calling
	// frame.Read(r, max)).
	PassesReader bool
}

// A FuncNode is one function in the program call graph: a declared
// function or method (Decl non-nil) or a function literal (Lit
// non-nil).
type FuncNode struct {
	Obj   *types.Func // nil for literals
	Decl  *ast.FuncDecl
	Lit   *ast.FuncLit
	Pkg   *Package
	Calls []CallEdge
	Facts FuncFacts

	params         map[types.Object]bool // this function's own parameters
	index, lowlink int                   // Tarjan bookkeeping
	onStack        bool
}

// Body returns the function's body block (nil for body-less decls).
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	return n.Decl.Body
}

// Name renders a diagnostic-friendly function name.
func (n *FuncNode) Name() string {
	if n.Obj != nil {
		if recv := n.Obj.Type().(*types.Signature).Recv(); recv != nil {
			return types.TypeString(recv.Type(), types.RelativeTo(n.Obj.Pkg())) + "." + n.Obj.Name()
		}
		return n.Obj.Name()
	}
	return "func literal"
}

// A Program is the call graph and summary table over every loaded
// package, shared by all analyzers of a run through Pass.Prog.
type Program struct {
	funcs map[string]*FuncNode // keyed by funcKey
	lits  map[*ast.FuncLit]*FuncNode
	all   []*FuncNode

	// dirs are the run's //lint: directives; fact computation consults
	// them so a reasoned suppression at a taint source stops the taint
	// instead of resurfacing it at every caller.
	dirs map[string][]*directive
}

// suppressedAt reports a reasoned directive at pos (same line or the
// line above) and marks it used, mirroring Pass.Suppressed for fact
// computation: a vouched-for site does not taint its callers.
func (p *Program) suppressedAt(fset *token.FileSet, pos token.Pos, name string) bool {
	position := fset.Position(pos)
	for _, d := range p.dirs[position.Filename] {
		if d.name == name && d.reason != "" && (d.line == position.Line || d.line == position.Line-1) {
			d.used = true
			return true
		}
	}
	return false
}

// funcKey is the cross-package-stable identity of a declared function:
// its full name (package path, receiver, name), normalized past generic
// instantiation. Object pointers cannot serve — every package is
// type-checked by its own importer, so the caller's and definer's views
// of one function are distinct *types.Func values.
func funcKey(fn *types.Func) string {
	return fn.Origin().FullName()
}

// FuncOf returns the call-graph node for a declared function or method,
// or nil if its body is outside the loaded program.
func (p *Program) FuncOf(obj *types.Func) *FuncNode { return p.funcs[funcKey(obj)] }

// LitOf returns the call-graph node for a function literal in a loaded
// file.
func (p *Program) LitOf(lit *ast.FuncLit) *FuncNode { return p.lits[lit] }

// wallClockFuncs are the time package functions that read the real
// clock or schedule on it.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// globalRandConstructors are the math/rand(/v2) package-level functions
// that build explicitly seeded local state rather than drawing from the
// hidden globals.
var globalRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// A Nondet is a kind of nondeterministic input that a seeded run must
// not read: what detrand forbids in the deterministic packages, and
// what the taint facts carry across calls.
type Nondet int

const (
	Deterministic Nondet = iota
	WallClock            // time.Now, time.Sleep, and the timers
	GlobalRand           // the hidden auto-seeded math/rand(/v2) globals
	CryptoRand           // crypto/rand, nondeterministic by design
	numNondet
)

// NondetSource classifies a package-qualified selector: which
// nondeterministic input it reads, if any, and a description such as
// "time.Now" or "math/rand.Intn". Types and constants (time.Duration,
// time.Second) are Deterministic, and so are the math/rand
// constructors, which build explicitly seeded local state; every other
// math/rand function (the draws, Seed, Read) touches the globals.
func NondetSource(info *types.Info, sel *ast.SelectorExpr) (Nondet, string) {
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return Deterministic, ""
	}
	pkgName, ok := info.Uses[ident].(*types.PkgName)
	if !ok {
		return Deterministic, ""
	}
	path := pkgName.Imported().Path()
	desc := path + "." + sel.Sel.Name
	switch path {
	case "time":
		if wallClockFuncs[sel.Sel.Name] {
			return WallClock, desc
		}
	case "math/rand", "math/rand/v2":
		if _, isFunc := info.Uses[sel.Sel].(*types.Func); isFunc && !globalRandConstructors[sel.Sel.Name] {
			return GlobalRand, desc
		}
	case "crypto/rand":
		return CryptoRand, desc
	}
	return Deterministic, ""
}

// readMethods are the blocking-read method names charged as conn reads
// when invoked on a net.Conn.
var readMethods = map[string]bool{"Read": true, "ReadFrom": true, "ReadFromUDPAddrPort": true, "ReadByte": true}

// ioReadFuncs are the io package functions that block reading their
// first argument.
var ioReadFuncs = map[string]bool{"ReadFull": true, "ReadAll": true, "ReadAtLeast": true, "Copy": true}

// deadlineMethods are the net.Conn deadline setters.
var deadlineMethods = map[string]bool{"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true}

// buildProgram constructs the call graph and computes summaries bottom-
// up over Tarjan SCC order. dirs is the shared //lint: directive table;
// reasoned suppressions at a taint source stop taint from propagating
// (and are marked used, since stopping taint is doing suppression
// work).
func buildProgram(pkgs []*Package, dirs map[string][]*directive) *Program {
	p := &Program{
		funcs: make(map[string]*FuncNode),
		lits:  make(map[*ast.FuncLit]*FuncNode),
		dirs:  dirs,
	}

	// Index every declared function first, so call resolution during
	// the fact walk can see forward references.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg}
				p.funcs[funcKey(obj)] = n
				p.all = append(p.all, n)
			}
		}
	}
	for _, n := range p.all {
		if n.Decl != nil {
			p.walk(n)
		}
	}
	p.propagate()
	return p
}

// isNetConn reports whether t looks like a net.Conn or net.PacketConn:
// its method set carries the connection-defining methods. The check is
// structural by method name rather than types.Implements against a
// cached net.Conn — every package is type-checked by its own importer,
// so named types from two packages are never identical and an
// Implements check would only work within one package. The address
// method (RemoteAddr for stream conns, LocalAddr for packet conns) is
// what keeps os.File out: it has Read/ReadFrom/Close/SetReadDeadline
// but no addresses. The third shape is the live node's transport
// (node.Transport, and *net.UDPConn behind it): a datagram socket read
// in netip form, with no deadline method in the interface at all.
func (p *Program) isNetConn(t types.Type) bool {
	if t == nil {
		return false
	}
	return hasMethods(t, "Read", "Close", "RemoteAddr", "SetReadDeadline") ||
		hasMethods(t, "ReadFrom", "Close", "LocalAddr", "SetReadDeadline") ||
		hasMethods(t, "ReadFromUDPAddrPort", "Close", "LocalAddr")
}

func hasMethods(t types.Type, names ...string) bool {
	for _, name := range names {
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
		if _, ok := obj.(*types.Func); !ok {
			return false
		}
	}
	return true
}

// CalleeOf resolves the declared function or method a call expression
// invokes, or nil for builtins, conversions, and dynamic calls.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// walk computes one declared function's direct facts and call edges,
// descending into its function literals (each literal gets its own node
// with its own facts; literal facts also fold into the enclosing
// declaration, since its code runs under the declaration's name).
func (p *Program) walk(root *FuncNode) {
	info := root.Pkg.TypesInfo

	// stack[0] is root; the top is the innermost function literal.
	var visit func(node *FuncNode, body ast.Node, stack []*FuncNode)
	visit = func(node *FuncNode, body ast.Node, stack []*FuncNode) {
		stack = append(stack, node)
		node.params = make(map[types.Object]bool)
		var ftype *ast.FuncType
		if node.Lit != nil {
			ftype = node.Lit.Type
		} else {
			ftype = node.Decl.Type
		}
		if ftype.Params != nil {
			for _, field := range ftype.Params.List {
				for _, name := range field.Names {
					if obj := info.Defs[name]; obj != nil {
						node.params[obj] = true
					}
				}
			}
		}
		record := func(f func(*FuncFacts)) {
			for _, n := range stack {
				f(&n.Facts)
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if n == body {
					return true
				}
				lit := &FuncNode{Lit: n, Pkg: node.Pkg}
				p.lits[n] = lit
				p.all = append(p.all, lit)
				visit(lit, n.Body, stack)
				return false
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					record(func(f *FuncFacts) { f.HasReceive = true })
				}
			case *ast.RangeStmt:
				if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						record(func(f *FuncFacts) { f.HasReceive = true })
					}
				}
			case *ast.ForStmt:
				if n.Cond == nil && !loopEscapes(n.Body) {
					record(func(f *FuncFacts) { f.HasUnboundedLoop = true })
				}
			case *ast.SelectorExpr:
				p.selectorFacts(node, n, record)
			case *ast.CallExpr:
				p.callFacts(stack, n, record)
			}
			return true
		})
	}
	visit(root, root.Decl.Body, nil)
}

// selectorFacts records a package-qualified taint source (see
// NondetSource) at a selector expression.
func (p *Program) selectorFacts(node *FuncNode, sel *ast.SelectorExpr, record func(func(*FuncFacts))) {
	kind, desc := NondetSource(node.Pkg.TypesInfo, sel)
	if kind == Deterministic || p.suppressedAt(node.Pkg.Fset, sel.Pos(), "wallclock-ok") {
		return
	}
	record(func(f *FuncFacts) {
		if f.Nondet[kind] == token.NoPos {
			f.Nondet[kind], f.NondetDesc[kind] = sel.Pos(), desc
		}
	})
}

// callFacts records call edges, conn reads, deadline sets, and
// context.AfterFunc at a call expression. stack is the enclosing
// function chain; the innermost element owns the call.
func (p *Program) callFacts(stack []*FuncNode, call *ast.CallExpr, record func(func(*FuncFacts))) {
	node := stack[len(stack)-1]
	info := node.Pkg.TypesInfo
	callee := CalleeOf(info, call)
	if callee == nil {
		return
	}
	passesConn, passesReader := false, false
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && p.isNetConn(tv.Type) {
			passesConn = true
		}
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && node.params[obj] {
				if _, isIface := obj.Type().Underlying().(*types.Interface); isIface {
					passesReader = true
				}
			}
		}
	}
	if target := p.FuncOf(callee); target != nil {
		node.Calls = append(node.Calls, CallEdge{Callee: target, Pos: call.Pos(), PassesConn: passesConn, PassesReader: passesReader})
	}
	switch pkg := calleePkgPath(callee); {
	case pkg == "io" && ioReadFuncs[callee.Name()] && len(call.Args) > 0:
		// io.Copy reads its second argument; the others read their
		// first. Checking both ends covers every shape.
		p.recordReaderUse(stack, call.Args[len(call.Args)-1], record)
		p.recordReaderUse(stack, call.Args[0], record)
	case pkg == "context" && callee.Name() == "AfterFunc":
		record(func(f *FuncFacts) { f.HasAfterFunc = true })
	}
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		recvType := sig.Recv().Type()
		if readMethods[callee.Name()] && p.isNetConn(recvType) {
			record(func(f *FuncFacts) { f.ReadsConn = true })
		}
		if deadlineMethods[callee.Name()] {
			record(func(f *FuncFacts) { f.SetsDeadline = true })
		}
	}
}

// recordReaderUse classifies one reader-ish argument of a blocking read
// call: a net.Conn argument is a conn read; an argument that is some
// enclosing function's own io.Reader-like parameter marks that function
// as reading its reader parameter.
func (p *Program) recordReaderUse(stack []*FuncNode, arg ast.Expr, record func(func(*FuncFacts))) {
	node := stack[len(stack)-1]
	info := node.Pkg.TypesInfo
	if tv, ok := info.Types[arg]; ok && p.isNetConn(tv.Type) {
		record(func(f *FuncFacts) { f.ReadsConn = true })
		return
	}
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok {
		return
	}
	obj := info.Uses[id]
	if obj == nil {
		return
	}
	if _, isIface := obj.Type().Underlying().(*types.Interface); !isIface {
		return
	}
	for _, owner := range stack {
		if owner.params[obj] {
			owner.Facts.ReadsReader = true
		}
	}
}

// calleePkgPath is the import path of a function's defining package
// ("" for builtins and universe-scope functions).
func calleePkgPath(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// propagate folds callee facts into callers bottom-up over Tarjan SCC
// order (members of a cycle share their union).
func (p *Program) propagate() {
	index := 1
	var stack []*FuncNode
	var strongconnect func(n *FuncNode)
	strongconnect = func(n *FuncNode) {
		n.index, n.lowlink = index, index
		index++
		stack = append(stack, n)
		n.onStack = true
		for _, e := range n.Calls {
			c := e.Callee
			if c.index == 0 {
				strongconnect(c)
				if c.lowlink < n.lowlink {
					n.lowlink = c.lowlink
				}
			} else if c.onStack && c.index < n.lowlink {
				n.lowlink = c.index
			}
		}
		if n.lowlink == n.index {
			var scc []*FuncNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				m.onStack = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			// Callees outside this SCC are fully summarized (Tarjan pops
			// components in reverse topological order); two merge rounds
			// reach a fixpoint within the component. Return facts run
			// here too, so they see summarized callees.
			for range 2 {
				for _, m := range scc {
					for _, e := range m.Calls {
						m.Facts.merge(&e.Callee.Facts, e.Callee, e)
					}
					p.returnFacts(m)
				}
			}
		}
	}
	for _, n := range p.all {
		if n.index == 0 {
			strongconnect(n)
		}
	}
}

// merge folds a callee's summary into f at a call site.
func (f *FuncFacts) merge(callee *FuncFacts, node *FuncNode, edge CallEdge) {
	for k, pos := range callee.Nondet {
		if f.Nondet[k] == token.NoPos && pos != token.NoPos {
			f.Nondet[k], f.NondetDesc[k] = pos, callee.NondetDesc[k]+" via "+node.Name()
		}
	}
	f.HasReceive = f.HasReceive || callee.HasReceive
	f.HasAfterFunc = f.HasAfterFunc || callee.HasAfterFunc
	f.SetsDeadline = f.SetsDeadline || callee.SetsDeadline
	f.HasUnboundedLoop = f.HasUnboundedLoop || callee.HasUnboundedLoop
	f.ReadsConn = f.ReadsConn || callee.ReadsConn || (callee.ReadsReader && edge.PassesConn)
	// Reader consumption chains through wrappers: a function handing its
	// own reader parameter to a reader-consuming callee consumes it too.
	f.ReadsReader = f.ReadsReader || (callee.ReadsReader && edge.PassesReader)
}

// loopEscapes reports whether a condition-less for body contains a
// return or break (outside nested function literals) — either gives the
// loop a structural way out, so it is not treated as unbounded. Breaks
// targeting an inner switch/select are counted too: that is permissive,
// but select-based loops carry a receive fact anyway.
func loopEscapes(body *ast.BlockStmt) bool {
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			escapes = true
			return false
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				escapes = true
				return false
			}
		}
		return !escapes
	})
	return escapes
}

// returnFacts computes the return-value facts of a function after its
// body walk: map-ordered returns (maporder's cross-function taint) and
// wire-decoded integer returns (wirebound's).
func (p *Program) returnFacts(node *FuncNode) {
	body := node.Body()
	if body == nil {
		return
	}
	info := node.Pkg.TypesInfo

	// orderedVars: locals appended to inside a map-range loop, minus
	// any later handed to a sort call. A range carrying a reasoned
	// //lint:maporder-ok does not taint: the author vouched the order
	// does not matter, so callers are not charged with it either.
	ordered := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, mapOrder := p.MapOrderedSource(info, rng.X); !mapOrder || p.suppressedAt(node.Pkg.Fset, rng.Pos(), "maporder-ok") {
			return true
		}
		ast.Inspect(rng.Body, func(inner ast.Node) bool {
			assign, ok := inner.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range assign.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || i >= len(assign.Lhs) {
					continue
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
						if target, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident); ok {
							if obj := info.ObjectOf(target); obj != nil {
								ordered[obj] = true
							}
						}
					}
				}
			}
			return true
		})
		return true
	})
	// Track maps.Keys/Collect assignments too: v := maps.Keys(m).
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range assign.Rhs {
			if i >= len(assign.Lhs) {
				break
			}
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && p.callReturnsMapOrder(info, call) {
				if target, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident); ok {
					if obj := info.ObjectOf(target); obj != nil {
						ordered[obj] = true
					}
				}
			}
		}
		return true
	})
	if len(ordered) > 0 {
		// A sorted ordered-var is deterministic after all.
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					if pn, ok := info.Uses[id].(*types.PkgName); ok {
						switch pn.Imported().Path() {
						case "sort", "slices":
							for _, arg := range call.Args {
								if target, ok := ast.Unparen(arg).(*ast.Ident); ok {
									if obj := info.ObjectOf(target); obj != nil {
										delete(ordered, obj)
									}
								}
							}
						}
					}
				}
			}
			return true
		})
	}

	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // literal returns belong to the literal's node
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			res = ast.Unparen(res)
			if id, ok := res.(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil && ordered[obj] {
					node.Facts.MapOrderedReturn = true
				}
			}
			if call, ok := res.(*ast.CallExpr); ok && p.callReturnsMapOrder(info, call) {
				node.Facts.MapOrderedReturn = true
			}
			// A returned function literal yielding out of a map range is
			// an iterator laundering map order (range-over-func).
			if lit, ok := res.(*ast.FuncLit); ok && litYieldsMapOrder(p, node.Pkg.Fset, info, lit) {
				node.Facts.MapOrderedReturn = true
			}
			if returnsWireInt(p, info, res) {
				node.Facts.ReturnsWireInt = true
			}
		}
		return true
	})
}

// litYieldsMapOrder reports a function literal containing a map-range
// loop that makes calls (the yield shape of a range-over-func
// iterator).
func litYieldsMapOrder(p *Program, fset *token.FileSet, info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, mapOrder := p.MapOrderedSource(info, rng.X); !mapOrder || p.suppressedAt(fset, rng.Pos(), "maporder-ok") {
			return true
		}
		ast.Inspect(rng.Body, func(inner ast.Node) bool {
			if _, ok := inner.(*ast.CallExpr); ok {
				found = true
				return false
			}
			return true
		})
		return !found
	})
	return found
}

// callReturnsMapOrder reports whether a call's result order derives
// from map iteration: maps.Keys/Values/All, slices.Collect of such, or
// a program function summarized MapOrderedReturn.
func (p *Program) callReturnsMapOrder(info *types.Info, call *ast.CallExpr) bool {
	callee := CalleeOf(info, call)
	if callee == nil {
		return false
	}
	switch calleePkgPath(callee) {
	case "maps":
		switch callee.Name() {
		case "Keys", "Values", "All":
			return true
		}
	case "slices":
		if callee.Name() == "Collect" && len(call.Args) == 1 {
			if inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok {
				return p.callReturnsMapOrder(info, inner)
			}
		}
	}
	if n := p.FuncOf(callee); n != nil {
		return n.Facts.MapOrderedReturn
	}
	return false
}

// MapOrderedSource reports whether ranging over e in the context of
// info visits elements in map-iteration order — e is a map, or a call
// returning map-derived order — with a description of the source for
// diagnostics: "map", "maps.Keys", or the laundering function's name.
func (p *Program) MapOrderedSource(info *types.Info, e ast.Expr) (string, bool) {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			return "map", true
		}
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || !p.callReturnsMapOrder(info, call) {
		return "", false
	}
	callee := CalleeOf(info, call) // non-nil: callReturnsMapOrder resolved it
	if pkg := calleePkgPath(callee); pkg == "maps" || pkg == "slices" {
		return pkg + "." + callee.Name(), true
	}
	return callee.FullName(), true
}

// returnsWireInt reports whether e is an integer-typed expression
// decoded from raw bytes: binary.XxxEndian.UintNN, indexing a byte
// slice, or calling a decoder summarized ReturnsWireInt.
func returnsWireInt(p *Program, info *types.Info, e ast.Expr) bool {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		if basic, ok := tv.Type.Underlying().(*types.Basic); !ok || basic.Info()&types.IsInteger == 0 {
			return false
		}
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if IsWireDecodeCall(p, info, n) {
				found = true
				return false
			}
		case *ast.IndexExpr:
			if tv, ok := info.Types[n.X]; ok && IsByteSlice(tv.Type) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// IsWireDecodeCall reports whether call decodes an integer from raw
// bytes: a binary.XxxEndian.UintNN method, binary.ReadUvarint/
// ReadVarint, or a program function summarized ReturnsWireInt.
func IsWireDecodeCall(p *Program, info *types.Info, call *ast.CallExpr) bool {
	callee := CalleeOf(info, call)
	if callee == nil {
		return false
	}
	if calleePkgPath(callee) == "encoding/binary" {
		switch callee.Name() {
		case "Uint16", "Uint32", "Uint64", "ReadUvarint", "ReadVarint", "Varint", "Uvarint":
			return true
		}
	}
	if n := p.FuncOf(callee); n != nil {
		return n.Facts.ReturnsWireInt
	}
	return false
}

// IsByteSlice reports whether t is a byte slice or array: indexing one
// reads raw wire bytes.
func IsByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	var elem types.Type
	switch u := t.Underlying().(type) {
	case *types.Slice:
		elem = u.Elem()
	case *types.Array:
		elem = u.Elem()
	default:
		return false
	}
	basic, ok := elem.Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Uint8
}
