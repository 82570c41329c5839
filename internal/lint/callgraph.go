package lint

// This file is the interprocedural layer under the analyzers that read
// function summaries (durable, bounded): a package-set
// call graph over the typed ASTs the loader already produces, condensed
// into strongly connected components so per-function summaries
// (summary.go) can be computed bottom-up.
//
// Soundness caveats, by construction:
//
//   - Nodes are keyed by *symbolic* IDs ("pkg.Func", "pkg.(T).Method",
//     "parent$litN") rather than types.Object identity, because each unit
//     typechecks from source while its imports come from export data — the
//     same function is a different object in every importing unit. Symbolic
//     keys make cross-unit edges resolve to the source-checked node.
//   - Interface calls get conservative may-call edges (tagged Dynamic) to
//     every loaded method with the same name whose receiver type declares
//     all of the interface's methods (matched by name, which is robust
//     across type universes). Summaries never propagate over Dynamic edges:
//     a may-edge proves nothing, in either direction.
//   - Calls through function values, fields, and channels are unresolved
//     and contribute no edge. The summary layer treats a missing edge as
//     "no information", which is the quiet direction for every analyzer
//     built here.

import (
	"fmt"
	"go/ast"
	"go/types"
)

// A FuncNode is one function in the program call graph: a declared function
// or method, or a function literal attributed to its enclosing declaration.
type FuncNode struct {
	// ID is the stable symbolic key: "pkg.Func", "pkg.(T).Method", or
	// "<parentID>$litN" for the N-th literal (in source order) inside parent.
	ID   string
	Pkg  *Package
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	Type *ast.FuncType
	Body *ast.BlockStmt

	// Out and In are the edges leaving and entering this node, in source
	// order of the call sites.
	Out []*CallEdge
	In  []*CallEdge

	// methodRecv names the receiver type ("pkg.T") for methods, "" otherwise.
	methodRecv string

	// ann holds the declaration's doc-comment annotations (annotate.go), key
	// → arguments. Literals share their enclosing declaration's map: an
	// annotation covers the whole body, closures included.
	ann map[string][]string

	// lits lists the literals nested in a declaration, at any depth, in
	// source order; nil for literal nodes.
	lits []*FuncNode
}

// A CallEdge is one (may-)call from Caller to Callee.
type CallEdge struct {
	Caller *FuncNode
	Callee *FuncNode
	Site   *ast.CallExpr
	// Go and Defer mark edges made through `go` / `defer` statements.
	Go, Defer bool
	// Dynamic marks conservative may-call edges from interface dispatch.
	Dynamic bool
}

// A CallGraph is the package-set call graph plus its SCC condensation.
type CallGraph struct {
	// Nodes maps symbolic IDs to nodes.
	Nodes map[string]*FuncNode
	// Order lists nodes deterministically: units sorted by path, files in
	// sorted order, declarations in source order, literals after their
	// parent.
	Order []*FuncNode
	// SCCs is the condensation in bottom-up order: every static edge from a
	// node in SCCs[j] leads into some SCCs[i] with i <= j, so summaries
	// computed in slice order see their callees' summaries already fixed.
	SCCs [][]*FuncNode

	byDecl map[*ast.FuncDecl]*FuncNode
	byLit  map[*ast.FuncLit]*FuncNode
}

// NodeFor returns the graph node of a declared function, or nil.
func (g *CallGraph) NodeFor(fd *ast.FuncDecl) *FuncNode { return g.byDecl[fd] }

// annotated reports whether the node's declaration carries qb5000:<key>;
// a nil node (a callee outside the loaded set) carries nothing.
func (n *FuncNode) annotated(key string) bool {
	if n == nil {
		return false
	}
	_, ok := n.ann[key]
	return ok
}

// staticTree returns what provably runs on the goroutine that calls one of
// the roots, in breadth-first order: the roots, every function literal of a
// reachable declaration (literals run on the declaring function's goroutine
// unless spawned), and the callees of static call and defer edges. Dynamic
// (interface may-call) edges are not followed — a may-edge proves nothing —
// and neither are `go` edges: a spawned callee runs elsewhere.
func staticTree(roots ...*FuncNode) []*FuncNode {
	seen := make(map[*FuncNode]bool)
	var out []*FuncNode
	visit := func(n *FuncNode) {
		if n != nil && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	for i := 0; i < len(out); i++ {
		for _, lit := range out[i].lits {
			visit(lit)
		}
		for _, e := range out[i].Out {
			if !e.Dynamic && !e.Go {
				visit(e.Callee)
			}
		}
	}
	return out
}

// funcID renders the symbolic ID of a declared function or method from its
// type object. Pointer receivers are normalized away: T and *T methods
// cannot collide in Go.
func funcID(f *types.Func) string {
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Path()
	}
	sig, ok := f.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		if name := recvTypeName(sig.Recv().Type()); name != "" {
			return pkg + ".(" + name + ")." + f.Name()
		}
	}
	return pkg + "." + f.Name()
}

// recvTypeName extracts the bare receiver type name from a receiver type,
// unwrapping pointers.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch n := t.(type) {
	case *types.Named:
		return n.Obj().Name()
	}
	return ""
}

// unitID renders the symbolic ID a declaration in unit pkg gets. External
// _test units ("pkg_test") keep their own namespace, which matches how the
// type checker sees them.
func declID(pkg *Package, fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if name := recvName(fd.Recv.List[0].Type); name != "" {
			return pkg.Path + ".(" + name + ")." + fd.Name.Name
		}
	}
	return pkg.Path + "." + fd.Name.Name
}

// recvName extracts the receiver type name from its AST form.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr: // generic receiver T[P]
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// buildCallGraph constructs the graph over the given units.
func buildCallGraph(units []*Package) *CallGraph {
	g := &CallGraph{
		Nodes:  make(map[string]*FuncNode),
		byDecl: make(map[*ast.FuncDecl]*FuncNode),
		byLit:  make(map[*ast.FuncLit]*FuncNode),
	}

	// Pass 1: nodes for every declaration and every function literal, plus
	// the per-receiver method-name index interface resolution needs.
	litNodes := g.byLit
	methodsByName := make(map[string][]*FuncNode) // method name -> method nodes
	recvMethods := make(map[string]map[string]bool)
	addNode := func(n *FuncNode) {
		// IDs collide only for uncallable declarations (multiple func init /
		// func _ per package); disambiguate with a deterministic suffix so
		// every body still gets analyzed.
		base := n.ID
		for i := 2; ; i++ {
			if _, dup := g.Nodes[n.ID]; !dup {
				break
			}
			n.ID = fmt.Sprintf("%s#%d", base, i)
		}
		g.Nodes[n.ID] = n
		g.Order = append(g.Order, n)
	}
	for _, pkg := range units {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				node := &FuncNode{
					ID:   declID(pkg, fd),
					Pkg:  pkg,
					Decl: fd,
					Type: fd.Type,
					Body: fd.Body,
					ann:  annotationsIn(onFunc, fd.Doc),
				}
				if fd.Recv != nil && len(fd.Recv.List) > 0 {
					if name := recvName(fd.Recv.List[0].Type); name != "" {
						node.methodRecv = pkg.Path + "." + name
						methodsByName[fd.Name.Name] = append(methodsByName[fd.Name.Name], node)
						if recvMethods[node.methodRecv] == nil {
							recvMethods[node.methodRecv] = make(map[string]bool)
						}
						recvMethods[node.methodRecv][fd.Name.Name] = true
					}
				}
				addNode(node)
				g.byDecl[fd] = node
				if fd.Body == nil {
					continue
				}
				inspectFuncLits(fd.Body, func(lit *ast.FuncLit) {
					ln := &FuncNode{
						ID:   fmt.Sprintf("%s$lit%d", node.ID, len(node.lits)),
						Pkg:  pkg,
						Lit:  lit,
						Type: lit.Type,
						Body: lit.Body,
						ann:  node.ann,
					}
					node.lits = append(node.lits, ln)
					litNodes[lit] = ln
					addNode(ln)
				})
			}
		}
	}

	// Pass 2: edges. Each node's body is walked shallowly (literal bodies
	// belong to the literal's own node).
	for _, node := range g.Order {
		if node.Body == nil {
			continue
		}
		collectEdges(g, node, litNodes, methodsByName, recvMethods)
	}

	g.condense()
	return g
}

// collectEdges walks one node's body recording call edges.
func collectEdges(g *CallGraph, node *FuncNode, litNodes map[*ast.FuncLit]*FuncNode,
	methodsByName map[string][]*FuncNode, recvMethods map[string]map[string]bool) {
	info := node.Pkg.Info
	addEdge := func(callee *FuncNode, site *ast.CallExpr, goStmt, deferStmt, dynamic bool) {
		if callee == nil {
			return
		}
		e := &CallEdge{Caller: node, Callee: callee, Site: site, Go: goStmt, Defer: deferStmt, Dynamic: dynamic}
		node.Out = append(node.Out, e)
		callee.In = append(callee.In, e)
	}
	resolve := func(call *ast.CallExpr, goStmt, deferStmt bool) {
		fun := ast.Unparen(call.Fun)
		if f, ok := fun.(*ast.FuncLit); ok {
			addEdge(litNodes[f], call, goStmt, deferStmt, false)
			return
		}
		// Interface dispatch fans out as conservative may-call edges to every
		// loaded method of the right name whose receiver type covers the
		// interface's method-name set.
		if f, ok := fun.(*ast.SelectorExpr); ok {
			if sel, ok := info.Selections[f]; ok && types.IsInterface(sel.Recv()) {
				iface, ok := sel.Recv().Underlying().(*types.Interface)
				if !ok {
					return
				}
				var need []string
				for i := 0; i < iface.NumMethods(); i++ {
					need = append(need, iface.Method(i).Name())
				}
				for _, cand := range methodsByName[f.Sel.Name] {
					if coversAll(recvMethods[cand.methodRecv], need) {
						addEdge(cand, call, goStmt, deferStmt, true)
					}
				}
				return
			}
		}
		if tf := staticCallee(info, call); tf != nil {
			addEdge(g.Nodes[funcID(tf)], call, goStmt, deferStmt, false)
		}
	}
	// Calls that are the direct operand of go/defer are recorded with their
	// tags at the statement; the generic CallExpr walk must skip them.
	goDefer := goDeferOperands(node.Body)
	inspectShallow(node.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			// The call's arguments may contain further calls; those run on
			// the spawning goroutine and are visited as plain CallExprs.
			resolve(st.Call, true, false)
			return true
		case *ast.DeferStmt:
			resolve(st.Call, false, true)
			return true
		case *ast.CallExpr:
			if goDefer[st] {
				return true
			}
			resolve(st, false, false)
			return true
		}
		return true
	})
}

// goDeferOperands collects the calls that are the direct operand of a go or
// defer statement; they do not run at their textual position.
func goDeferOperands(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	ops := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			ops[st.Call] = true
		case *ast.DeferStmt:
			ops[st.Call] = true
		}
		return true
	})
	return ops
}

// staticCallee resolves call to the *types.Func it statically invokes, or
// nil for interface dispatch, function values, builtins, and literals.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if tf, ok := info.Uses[f].(*types.Func); ok {
			return tf
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			tf, _ := sel.Obj().(*types.Func)
			return tf
		}
		// Package-qualified call (pkg.Func).
		if tf, ok := info.Uses[f.Sel].(*types.Func); ok {
			return tf
		}
	}
	return nil
}

// coversAll reports whether the method-name set covers every needed name.
func coversAll(have map[string]bool, need []string) bool {
	if have == nil {
		return false
	}
	for _, n := range need {
		if !have[n] {
			return false
		}
	}
	return true
}

// condense computes the SCC condensation over static (non-Dynamic) edges.
func (g *CallGraph) condense() {
	g.SCCs = tarjan(g.Order, func(v *FuncNode) []*FuncNode {
		var callees []*FuncNode
		for _, e := range v.Out {
			if !e.Dynamic {
				callees = append(callees, e.Callee)
			}
		}
		return callees
	})
}

// tarjan computes the strongly connected components of the graph over nodes
// (roots tried in slice order, successors in succs order, so the result is
// deterministic). Tarjan's algorithm emits each component only after every
// component reachable from it, so the result is in bottom-up order: every
// edge from a node in out[j] leads into some out[i] with i <= j.
func tarjan[N comparable](nodes []N, succs func(N) []N) [][]N {
	index := make(map[N]int, len(nodes))
	lowlink := make(map[N]int, len(nodes))
	onStack := make(map[N]bool)
	var stack []N
	var out [][]N
	var connect func(v N)
	connect = func(v N) {
		index[v] = len(index) + 1
		lowlink[v] = index[v]
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succs(v) {
			if index[w] == 0 {
				connect(w)
				lowlink[v] = min(lowlink[v], lowlink[w])
			} else if onStack[w] {
				lowlink[v] = min(lowlink[v], index[w])
			}
		}
		if lowlink[v] != index[v] {
			return
		}
		var scc []N
		for {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[w] = false
			scc = append(scc, w)
			if w == v {
				break
			}
		}
		out = append(out, scc)
	}
	for _, v := range nodes {
		if index[v] == 0 {
			connect(v)
		}
	}
	return out
}
