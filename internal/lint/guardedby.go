package lint

import (
	"go/ast"
	"go/types"
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
// The held-lock facts come from the one must-hold flow of the suite
// (heldLocks in lockorder.go): branches intersect, so a lock taken on only
// one arm does not count; deferred unlocks run at function exit, so the
// Lock-then-defer-Unlock idiom keeps the lock held below; a lock()-helper
// callee's HeldAtExit classes count as held after the call. Function
// literals start with no locks held — a closure may run
// on another goroutine — so guarded accesses inside pool workers must either
// lock or carry an audited //lint:ignore with the reason the access is safe.
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
		heldLocks(p.Prog, p.Unit, fb, nil, func(n ast.Node, held heldFact) {
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
