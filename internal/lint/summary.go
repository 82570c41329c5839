package lint

// Per-function summaries over the call graph. Summaries are computed once
// per Program in bottom-up SCC order with a fixed point over recursive
// components; every bit is monotone (false → true only), so the iteration
// terminates. Dynamic (interface may-call) edges never contribute to a
// summary: a may-edge proves nothing about what actually runs.

import (
	"go/ast"
	"go/types"
)

// A FuncSummary condenses the interprocedurally relevant behavior of one
// function. Bits are conservative in the quiet direction: "false" always
// means "not proven", never "proven absent".
type FuncSummary struct {
	// Spawns: the function starts a goroutine, directly or via static callees.
	Spawns bool
	// MayBlockForever: the body contains an unbounded loop (for with no
	// condition) with no exit path, or an empty select, or statically calls
	// (including defers) a function that does.
	MayBlockForever bool
	// NoReturn: the function never returns normally — its body ends in a
	// call to os.Exit / log.Fatal* / panic / runtime.Goexit or a NoReturn
	// callee, or it blocks forever.
	NoReturn bool
	// ReturnsOpen: the function returns a handle it opened itself (directly
	// or by forwarding a ReturnsOpen callee's result); callers inherit the
	// close obligation.
	ReturnsOpen bool
	// Allocates: the body performs a heap allocation the noalloc analyzer
	// would flag (make/new, escaping composites, fmt, conversions, closures,
	// map writes, goroutine spawns), directly or via a static non-go callee.
	Allocates bool
	// PerformsIO: the body mutates the filesystem (os.Create/WriteFile/
	// Rename/Remove/…, or writes through an *os.File), directly or via any
	// static callee — go statements included, since a spawned write still
	// touches disk on the caller's behalf. The durable analyzer uses it to
	// catch annotated paths laundered through an unannotated helper.
	PerformsIO bool
	// Bounded: every goroutine the function spawns (directly or via static
	// callees) is gated by an audited bounded pool/semaphore. Unlike the
	// other bits this is a greatest fixed point — it starts true and is
	// cleared (true → false only) by an ungated `go` statement or by calling
	// a spawning callee whose own Bounded bit was cleared. A
	// // qb5000:bounded doc annotation vouches for the whole body: nothing
	// under an annotated function clears the bit. The bounded analyzer
	// requires Bounded on everything reachable from a qb5000:serving entry.
	Bounded bool
	// Closes marks parameters the function closes on some path (including
	// via static callees); key -1 is the method receiver.
	Closes map[int]bool
	// HeldAtExit is the set of lock classes (see lockClassOf) the function
	// acquires, directly or via static non-go callees, and does not release
	// before returning — the lock()-helper shape. A class with any
	// Unlock/RUnlock in the body (deferred ones included) is excluded.
	HeldAtExit map[string]bool
}

// A Program is the package set under analysis with its interprocedural
// artifacts: the call graph and the per-function summaries.
type Program struct {
	Units     []*Package
	Graph     *CallGraph
	Summaries map[string]*FuncSummary

	// Lazily built: the nodes reachable from qb5000:serving entry points
	// (bounded). The annotation contracts need no table of their own: they
	// read FuncNode.ann.
	serving map[*FuncNode]bool
}

// NewProgram builds the call graph and summaries over the given units.
func NewProgram(units []*Package) *Program {
	prog := &Program{Units: units, Graph: buildCallGraph(units)}
	prog.Summaries = computeSummaries(prog.Graph)
	return prog
}

// Summary returns the summary for a symbolic function ID, or nil for
// functions outside the loaded set.
func (prog *Program) Summary(id string) *FuncSummary { return prog.Summaries[id] }

// computeSummaries walks the SCC condensation bottom-up, iterating each
// component to a fixed point.
func computeSummaries(g *CallGraph) map[string]*FuncSummary {
	sums := make(map[string]*FuncSummary, len(g.Order))
	for _, n := range g.Order {
		sums[n.ID] = &FuncSummary{
			Bounded:    true, // greatest fixed point: cleared, never set
			Closes:     make(map[int]bool),
			HeldAtExit: make(map[string]bool),
		}
	}
	for _, scc := range g.SCCs {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				if summarize(n, sums) {
					changed = true
				}
			}
		}
	}
	return sums
}

// summarize recomputes one node's summary from its body and its callees'
// current summaries, reporting whether any bit changed.
// bits snapshots the comparable part of a summary (everything but the maps,
// which are tracked by size — entries are only ever added).
func (s *FuncSummary) bits() [7]bool {
	return [7]bool{s.Spawns, s.MayBlockForever, s.NoReturn, s.ReturnsOpen,
		s.Allocates, s.PerformsIO, s.Bounded}
}

func summarize(n *FuncNode, sums map[string]*FuncSummary) bool {
	s := sums[n.ID]
	old := s.bits()
	oldCloses := len(s.Closes)
	oldHeld := len(s.HeldAtExit)
	info := n.Pkg.Info

	params, recvObj := paramObjects(info, n)

	released := map[string]bool{}
	if n.Body != nil {
		scanOwnBody(n, s, info, sums)
		scanCloses(n, s, info, params, recvObj, sums)
		scanReturnsOpen(n, s, info, sums)
		var acquired map[string]bool
		acquired, released = scanLockClasses(n, info)
		for c := range acquired {
			if !released[c] {
				s.HeldAtExit[c] = true
			}
		}
		if !s.Allocates && bodyAllocates(info, n.Body, params) {
			s.Allocates = true
		}
		if !s.PerformsIO && bodyPerformsIO(info, n.Body) {
			s.PerformsIO = true
		}
	}

	// Callee propagation over static edges only.
	for _, e := range n.Out {
		if e.Dynamic || e.Callee == nil {
			continue
		}
		cs := sums[e.Callee.ID]
		if cs == nil {
			continue
		}
		if cs.Spawns {
			s.Spawns = true
			// An unproven spawner taints its callers unless this function's
			// annotation vouches for the whole call tree under it.
			if !cs.Bounded && !n.annotated("bounded") {
				s.Bounded = false
			}
		}
		// A spawned callee blocking forever does not block the spawner.
		if cs.MayBlockForever && !e.Go {
			s.MayBlockForever = true
		}
		// Filesystem effects propagate across go edges too: the disk does
		// not care which goroutine issued the write.
		if cs.PerformsIO {
			s.PerformsIO = true
		}
		// A spawned callee's lock traffic and allocations happen on the new
		// goroutine, not in this frame.
		if !e.Go {
			if cs.Allocates {
				s.Allocates = true
			}
			for c := range cs.HeldAtExit {
				if !released[c] {
					s.HeldAtExit[c] = true
				}
			}
		}
	}
	if s.MayBlockForever {
		s.NoReturn = true
	}

	return s.bits() != old || len(s.Closes) != oldCloses || len(s.HeldAtExit) != oldHeld
}

// lockClassOf resolves the program-wide identity class of a mutex
// expression: "pkg.Type.field" when the mutex is a named struct's field
// (the receiver type is resolved through pointers, so c.mu and sh.mu on
// different variables of one type share a class), "pkg.var" for a
// package-level var, and "" for locals, captures, and anything else the
// type information cannot pin down.
func lockClassOf(info *types.Info, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				obj := named.Obj()
				pkg := ""
				if obj.Pkg() != nil {
					pkg = obj.Pkg().Name()
				}
				return pkg + "." + obj.Name() + "." + x.Sel.Name
			}
			return ""
		}
		// Package-qualified package-level var: pkg.Mu.
		if id, ok := x.X.(*ast.Ident); ok {
			if _, ok := info.Uses[id].(*types.PkgName); ok {
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					return v.Pkg().Name() + "." + v.Name()
				}
			}
		}
		return ""
	case *ast.Ident:
		if v, ok := info.ObjectOf(x).(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
	}
	return ""
}

// scanLockClasses resolves the lock classes the body itself acquires and
// releases. Only receiver-resolved classes count (lockClassOf); locks on
// locals stay intraprocedural. Closure bodies are their own nodes and are
// excluded.
func scanLockClasses(n *FuncNode, info *types.Info) (acquired, released map[string]bool) {
	acquired, released = map[string]bool{}, map[string]bool{}
	inspectShallow(n.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, onMutex := mutexMethod(info, call)
		if !onMutex {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		class := lockClassOf(info, sel.X)
		if class == "" {
			return true
		}
		switch name {
		case "Lock", "RLock":
			acquired[class] = true
		case "Unlock", "RUnlock":
			released[class] = true
		}
		return true
	})
	return acquired, released
}

// paramObjects resolves the node's parameter objects (positionally) and its
// receiver object.
func paramObjects(info *types.Info, n *FuncNode) ([]types.Object, types.Object) {
	var params []types.Object
	for _, name := range paramNames(n.Type) {
		if name == nil {
			params = append(params, nil)
		} else {
			params = append(params, info.Defs[name])
		}
	}
	var recvObj types.Object
	if n.Decl != nil && n.Decl.Recv != nil && len(n.Decl.Recv.List) > 0 && len(n.Decl.Recv.List[0].Names) > 0 {
		recvObj = info.Defs[n.Decl.Recv.List[0].Names[0]]
	}
	return params, recvObj
}

// scanOwnBody computes the purely local bits: spawning, unbounded loops, and
// no-return endings.
func scanOwnBody(n *FuncNode, s *FuncSummary, info *types.Info, sums map[string]*FuncSummary) {
	inspectShallow(n.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.GoStmt:
			s.Spawns = true
			if !n.annotated("bounded") {
				s.Bounded = false
			}
		case *ast.ForStmt:
			if x.Cond == nil && !loopExits(info, x, sums) {
				s.MayBlockForever = true
			}
		case *ast.SelectStmt:
			if len(x.Body.List) == 0 {
				s.MayBlockForever = true
			}
		}
		return true
	})
	if last := lastStmt(n.Body); last != nil {
		if es, ok := last.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok && isExitingCall(info, call, sums) {
				s.NoReturn = true
			}
		}
	}
}

// scanCloses records which parameters (and the receiver) the function closes,
// either directly or by handing them to a static callee that closes them.
// The scan covers the full subtree — defers and closures included — because
// a close anywhere still discharges the obligation on some path.
func scanCloses(n *FuncNode, s *FuncSummary, info *types.Info,
	params []types.Object, recvObj types.Object, sums map[string]*FuncSummary) {
	indexOf := func(obj types.Object) (int, bool) {
		if obj == nil {
			return 0, false
		}
		if obj == recvObj {
			return -1, true
		}
		for i, p := range params {
			if p != nil && p == obj {
				return i, true
			}
		}
		return 0, false
	}
	ast.Inspect(n.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Direct x.Close().
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" && len(call.Args) == 0 {
			if id, ok := sel.X.(*ast.Ident); ok {
				if i, ok := indexOf(info.ObjectOf(id)); ok {
					s.Closes[i] = true
				}
			}
		}
		// Forwarded to a callee that closes the matching parameter.
		if tf := staticCallee(info, call); tf != nil {
			if cs := sums[funcID(tf)]; cs != nil && len(cs.Closes) > 0 {
				for j, arg := range call.Args {
					id, ok := ast.Unparen(arg).(*ast.Ident)
					if !ok || !cs.Closes[j] {
						continue
					}
					if i, ok := indexOf(info.ObjectOf(id)); ok {
						s.Closes[i] = true
					}
				}
			}
		}
		return true
	})
}

// scanReturnsOpen marks functions that hand an open handle to their caller:
// a return whose result is an opener call directly, or an identifier that
// was assigned from one and is never closed in this body.
func scanReturnsOpen(n *FuncNode, s *FuncSummary, info *types.Info, sums map[string]*FuncSummary) {
	opened := make(map[types.Object]bool)
	closed := make(map[types.Object]bool)
	inspectShallow(n.Body, func(node ast.Node) bool {
		x, ok := node.(*ast.AssignStmt)
		if !ok || len(x.Rhs) != 1 {
			return true
		}
		if call, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr); ok && isOpenerCall(info, call, sums) {
			if id, ok := x.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				if obj := info.ObjectOf(id); obj != nil {
					opened[obj] = true
				}
			}
		}
		return true
	})
	// Closes discharge wherever they appear — defers and closures included.
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" && len(call.Args) == 0 {
				if id, ok := sel.X.(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						closed[obj] = true
					}
				}
			}
		}
		return true
	})
	inspectShallow(n.Body, func(node ast.Node) bool {
		ret, ok := node.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			switch r := ast.Unparen(res).(type) {
			case *ast.CallExpr:
				if isOpenerCall(info, r, sums) {
					s.ReturnsOpen = true
				}
			case *ast.Ident:
				if obj := info.ObjectOf(r); obj != nil && opened[obj] && !closed[obj] {
					s.ReturnsOpen = true
				}
			}
		}
		return true
	})
}

// osMutators are the os-package calls that mutate the filesystem; together
// with writes through an *os.File they define the PerformsIO bit. os.Open
// is deliberately absent: reading is not a durability hazard.
var osMutators = map[string]bool{
	"Create": true, "CreateTemp": true, "OpenFile": true, "WriteFile": true,
	"Rename": true, "Remove": true, "RemoveAll": true, "Truncate": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true, "Symlink": true, "Link": true,
}

// osFileWriteMethods are the (*os.File) methods that land bytes or metadata
// on disk.
var osFileWriteMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteAt": true, "Sync": true, "Truncate": true,
}

// bodyPerformsIO is the summary-layer filesystem scan feeding PerformsIO.
// The walk covers closures too: a FuncLit defined here that writes runs on
// this function's behalf wherever it ends up.
func bodyPerformsIO(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if isPkgIdent(info, sel.X, "os") && osMutators[sel.Sel.Name] {
			found = true
			return false
		}
		if osFileWriteMethods[sel.Sel.Name] {
			if t := info.TypeOf(sel.X); t != nil && t.String() == "*os.File" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// osOpeners and netOpeners are the stdlib calls that mint close obligations.
var osOpeners = map[string]bool{"Open": true, "Create": true, "OpenFile": true, "CreateTemp": true}
var netOpeners = map[string]bool{"Listen": true, "ListenTCP": true, "ListenUDP": true, "ListenUnix": true,
	"ListenPacket": true, "Dial": true, "DialTimeout": true, "DialTCP": true, "DialUDP": true, "DialUnix": true}

// isOpenerCall reports whether call mints a close obligation: an os/net
// opener, or a loaded callee whose summary says it returns an open handle.
func isOpenerCall(info *types.Info, call *ast.CallExpr, sums map[string]*FuncSummary) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if isPkgIdent(info, sel.X, "os") && osOpeners[sel.Sel.Name] {
			return true
		}
		if isPkgIdent(info, sel.X, "net") && netOpeners[sel.Sel.Name] {
			return true
		}
	}
	if tf := staticCallee(info, call); tf != nil {
		if cs := sums[funcID(tf)]; cs != nil && cs.ReturnsOpen {
			return true
		}
	}
	return false
}

// lastStmt returns the final statement of a block, or nil.
func lastStmt(body *ast.BlockStmt) ast.Stmt {
	if body == nil || len(body.List) == 0 {
		return nil
	}
	return body.List[len(body.List)-1]
}

// isPkgIdent reports whether e is an identifier naming the import of pkgPath.
func isPkgIdent(info *types.Info, e ast.Expr, pkgPath string) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path() == pkgPath
	}
	return false
}

// mutexMethod reports the method name if call is a method on sync.Mutex or
// sync.RWMutex (possibly behind a pointer).
func mutexMethod(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isMutexType(info.TypeOf(sel.X)) {
		return "", false
	}
	return sel.Sel.Name, true
}

// isExitingCall reports whether call never returns to its caller: os.Exit,
// log.Fatal*, runtime.Goexit, the panic builtin, or a loaded callee whose
// summary says NoReturn.
func isExitingCall(info *types.Info, call *ast.CallExpr, sums map[string]*FuncSummary) bool {
	if isBuiltinCall(info, call, "panic") {
		return true
	}
	if f, ok := call.Fun.(*ast.SelectorExpr); ok {
		name := f.Sel.Name
		if isPkgIdent(info, f.X, "os") && name == "Exit" {
			return true
		}
		if isPkgIdent(info, f.X, "log") && (name == "Fatal" || name == "Fatalf" || name == "Fatalln" || name == "Panic" || name == "Panicf" || name == "Panicln") {
			return true
		}
		if isPkgIdent(info, f.X, "runtime") && name == "Goexit" {
			return true
		}
		if tm, ok := info.TypeOf(f.X).(*types.Pointer); ok && tm.Elem().String() == "testing.T" && (name == "Fatal" || name == "Fatalf" || name == "FailNow" || name == "Skip" || name == "Skipf" || name == "SkipNow") {
			return true
		}
	}
	if tf := staticCallee(info, call); tf != nil {
		if cs := sums[funcID(tf)]; cs != nil && cs.NoReturn {
			return true
		}
	}
	return false
}

// loopExits reports whether an unconditional for loop has any path out:
// a return, a break binding to this loop (directly or by label), a goto, or
// a call that never returns. sums propagates NoReturn callees when set.
//
// The walk is nesting-aware: an unlabeled break inside a nested for, switch,
// or select binds to that construct, not to the loop under test — the
// classic `case <-ctx.Done(): break` bug therefore does NOT count as an
// exit. Function literals are opaque (their control flow is their own).
func loopExits(info *types.Info, loop *ast.ForStmt, sums map[string]*FuncSummary) bool {
	exits := false
	var walk func(node ast.Node, depth int)
	walk = func(node ast.Node, depth int) {
		if node == nil || exits {
			return
		}
		switch x := node.(type) {
		case *ast.FuncLit:
			return
		case *ast.ReturnStmt:
			exits = true
			return
		case *ast.BranchStmt:
			switch x.Tok.String() {
			case "break":
				// A labeled break always escapes at least this loop (labels
				// can only name enclosing statements); an unlabeled one
				// escapes only when it binds directly to this loop.
				if x.Label != nil || depth == 0 {
					exits = true
				}
			case "goto":
				exits = true // conservatively an escape
			}
			return
		case *ast.ExprStmt:
			if call, ok := x.X.(*ast.CallExpr); ok && isExitingCall(info, call, sums) {
				exits = true
				return
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			walkChildren(x, func(c ast.Node) { walk(c, depth+1) })
			return
		}
		walkChildren(node, func(c ast.Node) { walk(c, depth) })
	}
	walk(loop.Body, 0)
	return exits
}

// walkChildren invokes f on each direct child of n.
func walkChildren(n ast.Node, f func(ast.Node)) {
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if first {
			first = false
			return true
		}
		if m == nil {
			return false
		}
		f(m)
		return false
	})
}
