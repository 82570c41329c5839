package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc statically enforces the zero-alloc contract. A function annotated
//
//	// qb5000:noalloc
//
// in its doc comment must not allocate on any path the analyzer can see:
// make/new, composite literals that escape (slice and map literals, or any
// literal whose address is taken), append into backing the reaching-defs
// analysis cannot prove is caller-owned or pooled scratch, string↔[]byte
// (and integer→string) conversions, values boxed into interfaces, closures,
// goroutine spawns, fmt calls, map writes, and non-constant string
// concatenation are all flagged. Calls to other annotated functions are
// trusted (their own bodies are checked); calls to loaded, unannotated
// callees are checked against the Allocates summary bit, which propagates
// bottom-up over static call edges.
//
// Two classes of sites are exempt by design:
//
//   - Pooled/caller-owned scratch: append whose destination's reaching
//     definitions are all function parameters, reslices, self-appends, or
//     sync.Pool Get results — the backing is recycled, growth is amortized
//     away by the pool, and the hot path's steady state allocates nothing.
//   - Error paths: a site whose own type (or an enclosing expression's
//     type) implements error is constructing a failure return; error paths
//     are cold by contract, so &SyntaxError{...} literals and the fmt
//     formatting inside them stay quiet. Calls to unannotated Allocates
//     callees use enclosing expressions only, so hiding a hot-path helper
//     behind an error result does not silence it.
//
// The `m[string(b)]` map-read idiom (the compiler elides that conversion)
// is recognized and exempt. _test.go files are not checked.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "functions annotated qb5000:noalloc must not allocate on the paths the analyzer can prove",
	Run:  runNoAlloc,
}

func runNoAlloc(p *Pass) {
	eachFuncBody(p.Unit, func(fb *funcBody) {
		if fb.lit != nil || !p.Prog.Graph.NodeFor(fb.decl).annotated("noalloc") {
			return
		}
		c := &noallocChecker{pass: p, info: p.Info, parents: p.parents(fb.file), reach: fb.reaching(p.Info)}
		c.walk(fb.decl)
	})
}

// noallocChecker walks one annotated function body.
type noallocChecker struct {
	pass    *Pass
	info    *types.Info
	parents map[ast.Node]ast.Node
	reach   *reaching
}

func (c *noallocChecker) walk(fd *ast.FuncDecl) {
	sig, _ := c.info.Defs[fd.Name].Type().(*types.Signature)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			c.report(x.Pos(), x, "function literal allocates its closure")
			return false
		case *ast.GoStmt:
			c.report(x.Pos(), x, "go statement allocates a new goroutine")
			return false
		case *ast.CallExpr:
			c.call(x)
		case *ast.CompositeLit:
			c.composite(x)
		case *ast.AssignStmt:
			c.assign(x)
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(x.X).(*ast.IndexExpr); ok && isMapIndex(c.info, ix) {
				c.report(x.Pos(), x, "map update may allocate (bucket growth is a heap operation)")
			}
		case *ast.ValueSpec:
			if x.Type != nil {
				dst := c.info.TypeOf(x.Type)
				for _, v := range x.Values {
					c.boxed(dst, v, "var initialization")
				}
			}
		case *ast.ReturnStmt:
			if sig != nil && sig.Results() != nil && len(x.Results) == sig.Results().Len() {
				for i, res := range x.Results {
					c.boxed(sig.Results().At(i).Type(), res, "return")
				}
			}
		case *ast.BinaryExpr:
			c.concat(x)
		}
		return true
	})
}

func (c *noallocChecker) report(pos token.Pos, site ast.Node, format string, args ...any) {
	if c.exemptErrorPath(site, false) {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

// exemptErrorPath reports whether site sits on an error-construction path:
// its own static type, or an enclosing expression's, implements error.
// strict skips the site's own type — used for the callee-Allocates check so
// an allocating helper is not excused merely for returning an error.
func (c *noallocChecker) exemptErrorPath(site ast.Node, strict bool) bool {
	n := site
	if strict {
		n = c.parents[site]
	}
	for ; n != nil; n = c.parents[n] {
		e, ok := n.(ast.Expr)
		if !ok {
			if _, isStmt := n.(ast.Stmt); isStmt {
				return false
			}
			continue // KeyValueExpr parents etc. still climb
		}
		if implementsError(c.info.TypeOf(e)) {
			return true
		}
	}
	return false
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t (or *t, for a value of a type whose
// Error method has a pointer receiver — the value is still being assembled
// into an error) satisfies the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	if types.Implements(t, errorIface) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr && !types.IsInterface(t) {
		return types.Implements(types.NewPointer(t), errorIface)
	}
	return false
}

func (c *noallocChecker) call(call *ast.CallExpr) {
	// Type conversion?
	if tv, ok := c.info.Types[call.Fun]; ok && tv.IsType() {
		c.conversion(call)
		return
	}
	// Builtin?
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				c.report(call.Pos(), call, "make allocates")
			case "new":
				c.report(call.Pos(), call, "new allocates")
			case "append":
				c.appendCall(call)
			}
			return
		}
	}
	// fmt anything: every fmt call allocates (boxing its operands at least).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isPkgIdent(c.info, sel.X, "fmt") {
		c.report(call.Pos(), call, "call to fmt.%s allocates", sel.Sel.Name)
		return
	}
	if tf := staticCallee(c.info, call); tf != nil {
		id := funcID(tf)
		if c.pass.Prog.Graph.Nodes[id].annotated("noalloc") {
			// Annotated callee: its own body is verified.
		} else if cs := c.pass.Prog.Summaries[id]; cs != nil && cs.Allocates {
			if !c.exemptErrorPath(call, true) {
				c.pass.Reportf(call.Pos(), "call to %s allocates (callee summary; annotate it qb5000:noalloc or hoist the call off the hot path)", tf.Name())
			}
			return
		}
	}
	// Interface-typed parameters box their arguments.
	if sig, ok := c.info.TypeOf(call.Fun).(*types.Signature); ok && sig.Params() != nil {
		np := sig.Params().Len()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= np-1:
				if call.Ellipsis.IsValid() {
					continue // xs... passes the slice through
				}
				if sl, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
					pt = sl.Elem()
				}
			case i < np:
				pt = sig.Params().At(i).Type()
			}
			c.boxed(pt, arg, "argument")
		}
	}
}

// appendCall checks append's destination: growth is amortized away only
// when every reaching definition of the destination is caller-owned or
// pooled — a parameter, a reslice, a self-append, or a sync.Pool Get.
func (c *noallocChecker) appendCall(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		c.report(call.Pos(), call, "append into %s may grow a non-pooled backing array", types.ExprString(call.Args[0]))
		return
	}
	obj := c.info.ObjectOf(id)
	element := c.reach.elementOf(c.parents, call)
	defs := []defSite(nil)
	if obj != nil && element != nil {
		defs = c.reach.defsAt(element, obj)
	}
	if len(defs) == 0 {
		c.report(call.Pos(), call, "append into %s may grow a non-pooled backing array (no reaching definition proves pooled scratch)", id.Name)
		return
	}
	for _, d := range defs {
		if d.param || c.pooledDef(d, obj) {
			continue
		}
		c.report(call.Pos(), call, "append into %s may grow a non-pooled backing array (defined at a site that is not a parameter, reslice, self-append, or pool Get)", id.Name)
		return
	}
}

// pooledDef reports whether one reaching definition keeps the destination
// inside recycled backing: a reslice (buf = buf[:0]), a self-append
// (buf = append(buf, ...)), or a sync.Pool Get type assertion.
func (c *noallocChecker) pooledDef(d defSite, obj types.Object) bool {
	rhs := ast.Unparen(d.rhs)
	switch x := rhs.(type) {
	case *ast.SliceExpr:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, ok := c.info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(x.Args) > 0 {
				if aid, ok := ast.Unparen(x.Args[0]).(*ast.Ident); ok && c.info.ObjectOf(aid) == obj {
					return true
				}
			}
		}
	case *ast.TypeAssertExpr:
		if inner, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(inner.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Get" {
				if t := c.info.TypeOf(sel.X); t != nil {
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					return t.String() == "sync.Pool"
				}
			}
		}
	}
	return false
}

func (c *noallocChecker) conversion(call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	dst := c.info.TypeOf(call)
	src := c.info.TypeOf(call.Args[0])
	if dst == nil || src == nil {
		return
	}
	if tv, ok := c.info.Types[call.Args[0]]; ok && tv.Value != nil {
		return // constant conversions fold at compile time
	}
	du, su := dst.Underlying(), src.Underlying()
	switch {
	case isStringType(du) && isByteOrRuneSlice(su):
		if c.mapReadKey(call) {
			return // m[string(b)] is elided by the compiler on a map read
		}
		c.report(call.Pos(), call, "%s→string conversion allocates a copy", types.ExprString(call.Args[0]))
	case isByteOrRuneSlice(du) && isStringType(su):
		c.report(call.Pos(), call, "string→%s conversion allocates a copy", dst)
	case isStringType(du) && isIntegerType(su):
		c.report(call.Pos(), call, "integer→string conversion allocates")
	}
}

// mapReadKey reports whether conv is used directly as the index of a map
// read (not a map write): the one string-conversion shape the compiler
// performs without allocating.
func (c *noallocChecker) mapReadKey(conv ast.Expr) bool {
	ix, ok := c.parents[conv].(*ast.IndexExpr)
	if !ok || ix.Index != conv || !isMapIndex(c.info, ix) {
		return false
	}
	switch pa := c.parents[ix].(type) {
	case *ast.AssignStmt:
		for _, lhs := range pa.Lhs {
			if lhs == ix {
				return false
			}
		}
	case *ast.IncDecStmt:
		return false
	case *ast.UnaryExpr:
		if pa.Op == token.AND {
			return false
		}
	}
	return true
}

func (c *noallocChecker) composite(lit *ast.CompositeLit) {
	t := c.info.TypeOf(lit)
	if t == nil {
		return
	}
	if parent, ok := c.parents[lit].(*ast.UnaryExpr); ok && parent.Op == token.AND {
		c.report(parent.Pos(), parent, "&%s literal escapes to the heap", t)
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		c.report(lit.Pos(), lit, "slice literal allocates its backing array")
	case *types.Map:
		c.report(lit.Pos(), lit, "map literal allocates")
	}
}

func (c *noallocChecker) assign(st *ast.AssignStmt) {
	for _, lhs := range st.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapIndex(c.info, ix) {
			c.report(st.Pos(), st, "map assignment may allocate (bucket growth is a heap operation)")
			break
		}
	}
	// Boxing through plain assignment into an interface-typed location.
	if st.Tok == token.ASSIGN && len(st.Lhs) == len(st.Rhs) {
		for i, lhs := range st.Lhs {
			c.boxed(c.info.TypeOf(lhs), st.Rhs[i], "assignment")
		}
	}
}

// boxed reports src being converted into the interface type dst. Pointer-
// shaped values (pointers, channels, maps, funcs) fit the interface word
// without allocating; constants and untyped nil never box at run time.
func (c *noallocChecker) boxed(dst types.Type, src ast.Expr, what string) {
	if dst == nil || !types.IsInterface(dst.Underlying()) {
		return
	}
	t := c.info.TypeOf(src)
	if t == nil || types.IsInterface(t.Underlying()) {
		return
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if tv, ok := c.info.Types[src]; ok && tv.Value != nil {
		return
	}
	if pointerShaped(t) {
		return
	}
	c.report(src.Pos(), src, "%s boxes %s into %s (interface boxing allocates)", what, t, dst)
}

func (c *noallocChecker) concat(b *ast.BinaryExpr) {
	if b.Op != token.ADD || !isStringType(c.info.TypeOf(b)) {
		return
	}
	if tv, ok := c.info.Types[ast.Expr(b)]; ok && tv.Value != nil {
		return // constant-folded
	}
	// Report only the outermost + of a chain.
	if pb, ok := c.parents[b].(*ast.BinaryExpr); ok && pb.Op == token.ADD && isStringType(c.info.TypeOf(pb)) {
		return
	}
	c.report(b.OpPos, b, "string concatenation allocates")
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isIntegerType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isMapIndex(info *types.Info, ix *ast.IndexExpr) bool {
	t := info.TypeOf(ix.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// bodyAllocates is the summary-layer allocation scan: a deliberately cheap,
// local approximation of the checker above (no boxing, no reaching-defs, no
// error-path carve-out) that feeds the Allocates bit. Precision lives in
// the per-annotation body walk; this bit only has to catch unannotated
// helpers that plainly allocate. params exempts appends into caller-owned
// scratch.
func bodyAllocates(info *types.Info, body *ast.BlockStmt, params []types.Object) bool {
	paramSet := make(map[types.Object]bool, len(params))
	for _, p := range params {
		if p != nil {
			paramSet[p] = true
		}
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			found = true // the closure value itself is an allocation
			return false
		}
		return true
	})
	inspectShallow(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.GoStmt:
			found = true
		case *ast.CallExpr:
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
				if convAllocates(info, x) {
					found = true
				}
				return true
			}
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make", "new":
						found = true
					case "append":
						if len(x.Args) > 0 {
							if aid, ok := ast.Unparen(x.Args[0]).(*ast.Ident); !ok || !paramSet[info.ObjectOf(aid)] {
								found = true
							}
						}
					}
					return true
				}
			}
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && isPkgIdent(info, sel.X, "fmt") {
				found = true
			}
		case *ast.CompositeLit:
			switch info.TypeOf(x).Underlying().(type) {
			case *types.Slice, *types.Map:
				found = true
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapIndex(info, ix) {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(x.X).(*ast.IndexExpr); ok && isMapIndex(info, ix) {
				found = true
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(info.TypeOf(x)) {
				if tv, ok := info.Types[ast.Expr(x)]; !ok || tv.Value == nil {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// convAllocates mirrors the checker's conversion taxonomy without the
// map-read exemption.
func convAllocates(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	dst, src := info.TypeOf(call), info.TypeOf(call.Args[0])
	if dst == nil || src == nil {
		return false
	}
	if tv, ok := info.Types[call.Args[0]]; ok && tv.Value != nil {
		return false
	}
	du, su := dst.Underlying(), src.Underlying()
	return (isStringType(du) && (isByteOrRuneSlice(su) || isIntegerType(su))) ||
		(isByteOrRuneSlice(du) && isStringType(su))
}
