package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SliceShare polices the data-sharing contract of internal/parallel worker
// closures — the exact bug class the pipeline's bit-identical-at-any-
// parallelism guarantee depends on. A slice or map captured by the function
// literal handed to parallel.ForEach / parallel.Map / parallel.Each must be
// one of:
//
//   - read-only inside the worker;
//   - written only at indices derived from the worker's own index parameter
//     (index-disjoint slots, the pool's sanctioned result pattern); or
//   - written with a mutex provably held (the heldLocks must-hold flow).
//
// Everything else is reported: appends or reassignments of a captured slice
// (racing on the shared header), writes at indices the analysis cannot tie
// to the worker index (possible slot collisions), and any write or delete
// on a captured map (Go maps are never write-safe concurrently, disjoint
// keys or not). Whether an index derives from the worker index is resolved
// through reaching definitions, so `j := i * 2; out[j] = v` is recognized.
var SliceShare = &Analyzer{
	Name: "sliceshare",
	Doc:  "slices/maps captured by parallel workers must be read-only, index-disjoint, or locked",
	Run:  runSliceShare,
}

func runSliceShare(p *Pass) {
	for _, file := range p.Unit.nonTestFiles() {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isParallelCall(p, call) {
				return true
			}
			sel := call.Fun.(*ast.SelectorExpr)
			if sel.Sel.Name != "ForEach" && sel.Sel.Name != "Map" && sel.Sel.Name != "Each" {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
			if !ok {
				return true // a named worker func is opaque; nothing to check
			}
			p.checkWorker(&funcBody{file: file, lit: lit, typ: lit.Type, body: lit.Body})
			return true
		})
	}
}

// workerIndexObj returns the object of the worker's index parameter: the
// first int-typed parameter of the closure (fn(ctx, i) / fn(ctx, i, item)).
func (p *Pass) workerIndexObj(lit *ast.FuncLit) types.Object {
	if lit.Type.Params == nil {
		return nil
	}
	for _, field := range lit.Type.Params.List {
		t := p.Info.TypeOf(field.Type)
		isInt := false
		if b, ok := t.(*types.Basic); ok && b.Kind() == types.Int {
			isInt = true
		} else if t == nil {
			// Fixture fallback: a parameter literally typed "int".
			if id, ok := field.Type.(*ast.Ident); ok && id.Name == "int" {
				isInt = true
			}
		}
		if !isInt {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			return p.Info.ObjectOf(name)
		}
	}
	return nil
}

// capturedVar resolves id to a variable declared outside the worker closure
// (a capture), or nil.
func (p *Pass) capturedVar(id *ast.Ident, lit *ast.FuncLit) *types.Var {
	v, ok := p.Info.Uses[id].(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
		return nil // declared inside the worker
	}
	return v
}

func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkWorker analyzes one worker closure: reaching definitions resolve
// index provenance, the lock walk resolves protected regions.
func (p *Pass) checkWorker(fb *funcBody) {
	lit := fb.lit
	idx := p.workerIndexObj(lit)
	reach := fb.reaching(p.Info)
	heldLocks(p.Prog, p.Unit, fb, nil, func(n ast.Node, held heldFact) {
		locked := len(held) > 0
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				p.checkWorkerWrite(lit, idx, reach, n, lhs, locked)
			}
			// x = append(x, ...) is caught via the lhs; append into a
			// *different* captured slice via the rhs is caught when it is
			// assigned, which covers the racy shapes.
		case *ast.IncDecStmt:
			p.checkWorkerWrite(lit, idx, reach, n, st.X, locked)
		case *ast.ExprStmt:
			p.checkWorkerBuiltins(lit, idx, reach, n, st.X, locked)
		}
	})
}

// checkWorkerWrite validates one write destination inside a worker.
func (p *Pass) checkWorkerWrite(lit *ast.FuncLit, idx types.Object, reach *reaching, element ast.Node, lhs ast.Expr, locked bool) {
	switch dst := lhs.(type) {
	case *ast.Ident:
		v := p.capturedVar(dst, lit)
		if v == nil || !(isSliceType(v.Type()) || isMapType(v.Type())) || locked {
			return
		}
		p.Reportf(dst.Pos(), "captured %s %s is reassigned inside a parallel worker; workers race on the shared header — write into per-index slots or guard it with a mutex",
			containerKind(v.Type()), dst.Name)
	case *ast.IndexExpr:
		base := baseIdent(dst.X)
		if base == nil {
			return
		}
		v := p.capturedVar(base, lit)
		if v == nil || locked {
			return
		}
		bt := p.Info.TypeOf(dst.X)
		switch {
		case isMapType(bt):
			p.Reportf(dst.Pos(), "captured map %s is written inside a parallel worker; map writes race even on disjoint keys — assemble the map sequentially after the pool returns, or guard it", base.Name)
		case isSliceType(bt) && !(isSliceType(v.Type()) || isMapType(v.Type())):
			// Indexing a slice reached through a struct field or pointer
			// capture still races; treat like a direct slice capture.
			fallthrough
		case isSliceType(bt):
			if idx != nil && p.indexDerived(dst.Index, idx, reach, element, make(map[types.Object]bool)) {
				return // the sanctioned one-slot-per-index pattern
			}
			p.Reportf(dst.Pos(), "captured slice %s is written at index %q, which is not derived from the worker index; workers may collide on a slot — index by the worker's own i or lock",
				base.Name, types.ExprString(dst.Index))
		}
	}
}

// checkWorkerBuiltins flags copy/delete statements that mutate captures.
func (p *Pass) checkWorkerBuiltins(lit *ast.FuncLit, idx types.Object, reach *reaching, element ast.Node, e ast.Expr, locked bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || locked {
		return
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return
	}
	base := baseIdent(call.Args[0])
	if base == nil {
		return
	}
	v := p.capturedVar(base, lit)
	if v == nil {
		return
	}
	switch fn.Name {
	case "copy":
		if isSliceType(p.Info.TypeOf(call.Args[0])) {
			p.Reportf(call.Pos(), "copy into captured slice %s inside a parallel worker; bound the destination to the worker's index slot or lock", base.Name)
		}
	case "delete":
		if isMapType(p.Info.TypeOf(call.Args[0])) {
			p.Reportf(call.Pos(), "delete on captured map %s inside a parallel worker; map mutation is never concurrency-safe — collect keys and delete after the pool returns", base.Name)
		}
	}
}

// indexDerived reports whether expr provably derives from the worker index
// parameter: the parameter itself, constants, arithmetic over derived
// operands, len/cap (loop-invariant, so i*len(chunk)+k stays disjoint per
// i), or a local whose every reaching definition is itself derived.
func (p *Pass) indexDerived(expr ast.Expr, idx types.Object, reach *reaching, element ast.Node, visiting map[types.Object]bool) bool {
	switch e := expr.(type) {
	case *ast.BasicLit:
		return e.Kind == token.INT
	case *ast.ParenExpr:
		return p.indexDerived(e.X, idx, reach, element, visiting)
	case *ast.UnaryExpr:
		return (e.Op == token.ADD || e.Op == token.SUB) && p.indexDerived(e.X, idx, reach, element, visiting)
	case *ast.BinaryExpr:
		return p.indexDerived(e.X, idx, reach, element, visiting) && p.indexDerived(e.Y, idx, reach, element, visiting)
	case *ast.CallExpr:
		if fn, ok := e.Fun.(*ast.Ident); ok && (fn.Name == "len" || fn.Name == "cap") {
			return true
		}
		return false
	case *ast.Ident:
		obj := p.Info.ObjectOf(e)
		if obj == nil {
			return false
		}
		if obj == idx {
			return true
		}
		if _, isConst := obj.(*types.Const); isConst {
			return true
		}
		if visiting[obj] {
			return false // cyclic defs (j = j + 1 across iterations) are not provably disjoint
		}
		visiting[obj] = true
		defer delete(visiting, obj)
		defs := reach.defsAt(element, obj)
		if len(defs) == 0 {
			return false
		}
		for _, d := range defs {
			if d.param || d.rhs == nil {
				return false
			}
			if !p.indexDerived(d.rhs, idx, reach, d.site, visiting) {
				return false
			}
		}
		return true
	}
	return false
}

func containerKind(t types.Type) string {
	if isMapType(t) {
		return "map"
	}
	return "slice"
}
