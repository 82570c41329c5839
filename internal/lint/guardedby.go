package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// GuardedBy verifies lock-discipline annotations. A struct field annotated
//
//	// qb5000:guardedby <mutex-field>
//
// may only be read or written at points where the dataflow analysis proves
// the named sibling sync.Mutex/RWMutex is held (Lock or RLock on every path
// into the access). Helper methods that rely on the caller's lock declare it
// with
//
//	// qb5000:locked <mutex-field>
//
// on the method: inside, the receiver's lock is assumed held; every call
// site is then checked like a field access. The special guard `atomic`
// restricts a field to method-call access (Load/Store/Add/CompareAndSwap on
// the sync/atomic wrapper types), flagging copies or address escapes.
//
// The held-lock facts come from the must-hold flow below (heldLocks):
// branches intersect, so a lock taken on only one arm does not count;
// deferred unlocks run at function exit, so the Lock-then-defer-Unlock idiom
// keeps the lock held below; a lock()-helper callee's HeldAtExit classes
// count as held after the call. Function literals start with no locks held
// — a closure may run on another goroutine — so guarded accesses inside pool
// workers must either lock or carry an audited //lint:ignore with the reason
// the access is safe.
// Composite literals (the value under construction is not yet shared) and
// _test.go files are exempt.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "fields annotated qb5000:guardedby must only be accessed with their mutex held",
	Run:  runGuardedBy,
}

// guardAtomic is the reserved guard name for atomics.
const guardAtomic = "atomic"

// isMutexType reports whether t is sync.Mutex, sync.RWMutex, or a pointer to
// one.
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// guardTable holds the package's annotations.
type guardTable struct {
	fields map[*types.Var]string   // guarded field → sibling mutex field name, or "atomic"
	locked map[types.Object]string // method → mutex field assumed held
}

// collectGuards scans struct declarations and method docs for annotations,
// reporting malformed ones (unknown guard field, non-mutex guard, locked
// annotation without a receiver) so the grammar stays auditable.
func collectGuards(p *Pass) *guardTable {
	t := &guardTable{
		fields: make(map[*types.Var]string),
		locked: make(map[types.Object]string),
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				args := annotationsIn(onField, field.Doc, field.Comment)["guardedby"]
				if args == nil {
					continue
				}
				guard := args[0]
				if guard != guardAtomic && !structHasMutex(p, st, guard) {
					p.Reportf(field.Pos(), "qb5000:guardedby names %q, which is not a sync.Mutex/RWMutex field of this struct (or the literal %q)", guard, guardAtomic)
					continue
				}
				for _, name := range field.Names {
					if v, ok := p.Info.Defs[name].(*types.Var); ok {
						t.fields[v] = guard
					}
				}
			}
			return true
		})
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			args := p.Prog.Graph.NodeFor(fd).ann["locked"]
			if args == nil {
				continue
			}
			guard := args[0]
			if fd.Recv == nil || len(fd.Recv.List) == 0 {
				p.Reportf(fd.Pos(), "qb5000:locked %s on a function without a receiver; the annotation declares a receiver-held lock", guard)
				continue
			}
			if obj := p.Info.Defs[fd.Name]; obj != nil {
				t.locked[obj] = guard
			}
		}
	}
	return t
}

// structHasMutex reports whether the struct literally declares a mutex field
// with the given name.
func structHasMutex(p *Pass, st *ast.StructType, name string) bool {
	for _, field := range st.Fields.List {
		for _, n := range field.Names {
			if n.Name == name {
				return isMutexType(p.Info.TypeOf(field.Type))
			}
		}
	}
	return false
}

func runGuardedBy(p *Pass) {
	guards := collectGuards(p)
	if len(guards.fields) == 0 && len(guards.locked) == 0 {
		return
	}
	eachFuncBody(p.Unit, func(fb *funcBody) {
		parents := p.parents(fb.file)
		reported := make(map[ast.Node]bool)
		heldLocks(p.Prog, p.Unit, fb, func(n ast.Node, held heldFact) {
			// Elements synthesized for `range` clauses reuse sub-expressions of
			// the real statement; dedupe so a node is checked once.
			inspectShallow(n, func(m ast.Node) bool {
				if reported[m] {
					return true
				}
				switch x := m.(type) {
				case *ast.SelectorExpr:
					p.checkGuardedSelector(guards, parents, x, held, reported)
				case *ast.CallExpr:
					p.checkLockedCall(guards, x, held, reported)
				}
				return true
			})
		})
	})
}

// checkGuardedSelector validates one <base>.<field> access against the
// annotation table.
func (p *Pass) checkGuardedSelector(guards *guardTable, parents map[ast.Node]ast.Node, sel *ast.SelectorExpr, held heldFact, reported map[ast.Node]bool) {
	obj, ok := p.Info.Uses[sel.Sel].(*types.Var)
	if !ok {
		return
	}
	guard, ok := guards.fields[obj]
	if !ok {
		return
	}
	if guard == guardAtomic {
		// The only sanctioned shape is a method call on the field:
		// base.field.Load() etc. Anything else (copy, address-of, direct
		// state access) defeats the atomic wrapper.
		if outer, ok := parents[sel].(*ast.SelectorExpr); ok {
			if call, ok := parents[outer].(*ast.CallExpr); ok && call.Fun == outer {
				return
			}
		}
		reported[sel] = true
		p.Reportf(sel.Pos(), "field %s is qb5000:guardedby atomic and must only be used through its atomic method calls (Load/Store/Add/CompareAndSwap)", sel.Sel.Name)
		return
	}
	key := types.ExprString(sel.X) + "." + guard
	if _, ok := held[key]; ok {
		return
	}
	reported[sel] = true
	p.Reportf(sel.Pos(), "access to %s.%s (qb5000:guardedby %s) without holding %s on every path; lock it, or mark the enclosing method // qb5000:locked %s",
		types.ExprString(sel.X), sel.Sel.Name, guard, key, guard)
}

// checkLockedCall validates a call to a qb5000:locked method: the caller
// must hold the receiver's declared mutex.
func (p *Pass) checkLockedCall(guards *guardTable, call *ast.CallExpr, held heldFact, reported map[ast.Node]bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	callee := p.Info.Uses[sel.Sel]
	if callee == nil {
		return
	}
	guard, ok := guards.locked[callee]
	if !ok {
		return
	}
	key := types.ExprString(sel.X) + "." + guard
	if _, ok := held[key]; ok {
		return
	}
	reported[call] = true
	p.Reportf(call.Pos(), "call to %s requires %s held (qb5000:locked %s in its declaration)",
		types.ExprString(call.Fun), key, guard)
}

// heldFact is the must-hold fact: the set of expression-rendered mutex keys
// ("c.mu", so distinct receivers of one type stay distinct) locked on every
// path into a point. Read and write locks count alike.
type heldFact = setFact[string, struct{}]

// heldLocks solves the held-lock flow over one function body and replays it:
// visit sees every element with the locks provably held on every path into
// it.
func heldLocks(prog *Program, u *Package, fb *funcBody, visit func(ast.Node, heldFact)) {
	goDefer := goDeferOperands(fb.body)
	transfer := func(f heldFact, n ast.Node) heldFact {
		return lockStep(prog, u, f, n, goDefer)
	}
	forwardFlow(buildCFG(fb.body), lockedEntry(prog, fb), transfer, heldFact.intersect, heldFact.equal, visit)
}

// lockedEntry is the fact a body starts with. A declaration annotated
// qb5000:locked <mu> starts with the receiver's <mu> held; everything else —
// function literals included, since a closure may run on another goroutine —
// starts with no locks held.
func lockedEntry(prog *Program, fb *funcBody) heldFact {
	if fb.lit != nil {
		return heldFact{}
	}
	recv := receiverName(fb.decl)
	args := prog.Graph.NodeFor(fb.decl).ann["locked"]
	if args == nil || recv == "" {
		return heldFact{}
	}
	return heldFact{recv + "." + args[0]: {}}
}

func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// lockStep is the transfer function of the held-lock flow. Defer statements
// leave the fact unchanged (deferred unlocks run at exit — the
// Lock-then-defer-Unlock idiom keeps the lock held below); go statements run
// their operand on another goroutine and are opaque.
func lockStep(prog *Program, u *Package, f heldFact, n ast.Node, goDefer map[*ast.CallExpr]bool) heldFact {
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return f
	}
	inspectShallow(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok && !goDefer[call] {
			f = lockCall(prog, u, f, call)
		}
		return true
	})
	return f
}

// lockCall applies one call's effect on the held set.
func lockCall(prog *Program, u *Package, f heldFact, call *ast.CallExpr) heldFact {
	if name, onMutex := mutexMethod(u.Info, call); onMutex {
		key := types.ExprString(call.Fun.(*ast.SelectorExpr).X)
		switch name {
		case "Lock", "RLock":
			return f.with(key, struct{}{})
		case "Unlock", "RUnlock":
			return f.without(key)
		}
		return f
	}
	tf := staticCallee(u.Info, call)
	if tf == nil {
		return f
	}
	cs := prog.Summaries[funcID(tf)]
	if cs == nil {
		return f
	}
	// A lock()-helper callee leaves locks held: thread them into the fact so
	// the matching later Unlock (keyed the same way) releases them.
	for _, class := range sortedKeys(cs.HeldAtExit) {
		f = f.with(heldKeyFor(call, class), struct{}{})
	}
	return f
}

// heldKeyFor renders the held-set key for a class a callee left locked: the
// call's receiver expression plus the class's field segment, so that the
// caller's own later "<recv>.<field>.Unlock()" releases it.
func heldKeyFor(call *ast.CallExpr, class string) string {
	field := class
	if i := strings.LastIndex(class, "."); i >= 0 {
		field = class[i+1:]
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X) + "." + field
	}
	return field
}
