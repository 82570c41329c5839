package lint

import (
	"go/ast"
	"go/types"
)

// Bounded enforces the serving-tier resource contract (DESIGN.md §9): code
// reachable from a
//
//	// qb5000:serving
//
// entry point (HTTP handlers, ingest fan-in) runs under live traffic, so
// every queue it touches must have a constant bound and nothing on the
// request path may park the goroutine on an unbounded handoff. Four checks
// over the serving-reachable slice of the call graph:
//
//   - Channel capacity: `make(chan T, n)` needs a constant n — a capacity
//     computed from config or input is an unbounded queue in disguise.
//     (`make(chan T)` is fine: capacity 0 is a constant, and its sends are
//     caught by the next rule.)
//   - Sends: a channel send must be non-blocking — the comm clause of a
//     select with a `default`, or of a select that also waits on a
//     ctx.Done()/timer escape hatch. A bare send can park the request
//     goroutine forever on one slow consumer.
//   - Spawns: a `go` statement (or a call whose static callee's Bounded
//     summary bit was cleared) must sit inside a function annotated
//     `// qb5000:bounded <reason>` — the author's audit that the spawn is
//     gated by a semaphore/worker pool. The annotation covers the whole
//     body, closures included, and is vouched down the call tree.
//   - Queue growth: appending to (or writing a map entry of) a variable
//     captured from an enclosing function, with no len() check on that
//     variable anywhere in the closure body, accumulates per-request data
//     in a structure nothing bounds. A len() guard in the same closure
//     (flush-at-threshold batching) keeps it quiet.
//
// Reachability is the call graph's staticTree: static call and defer edges
// but not Dynamic (interface may-call) edges — a may-edge proves nothing —
// and not `go` edges: a spawned worker is bounded by the spawn rule, while
// its own blocking receives/sends are its legitimate job. Test files are
// skipped.
var Bounded = &Analyzer{
	Name: "bounded",
	Doc:  "serving-path code must use constant channel bounds, non-blocking sends, and gated spawns",
	Run:  runBounded,
}

func runBounded(p *Pass) {
	if p.Prog.serving == nil {
		var roots []*FuncNode
		for _, n := range p.Prog.Graph.Order {
			if n.Decl != nil && n.annotated("serving") {
				roots = append(roots, n)
			}
		}
		p.Prog.serving = make(map[*FuncNode]bool)
		for _, n := range staticTree(roots...) {
			p.Prog.serving[n] = true
		}
	}
	for _, n := range p.Prog.Graph.Order {
		if n.Pkg != p.Unit || !p.Prog.serving[n] || n.Body == nil || p.InTestFile(n.Body.Pos()) {
			continue
		}
		p.checkBoundedNode(n)
	}
}

// checkBoundedNode runs the four serving-path checks over one node's own
// body (literal bodies belong to the literal's node).
func (p *Pass) checkBoundedNode(n *FuncNode) {
	sums := p.Prog.Summaries
	// A `go f()` operand is already covered by the GoStmt finding; don't
	// re-report the same spawn as an unbounded call.
	goCalls := make(map[*ast.CallExpr]bool)
	inspectShallow(n.Body, func(node ast.Node) bool {
		if gs, ok := node.(*ast.GoStmt); ok {
			goCalls[gs.Call] = true
		}
		return true
	})
	inspectShallow(n.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			p.checkServingMake(x)
			if !n.annotated("bounded") && !goCalls[x] {
				if tf := staticCallee(p.Info, x); tf != nil {
					if cs := sums[funcID(tf)]; cs != nil && cs.Spawns && !cs.Bounded {
						p.Reportf(x.Pos(), "call to %s on a serving path spawns goroutines without a proven bound; gate the spawn and annotate the spawner qb5000:bounded", tf.Name())
					}
				}
			}
		case *ast.GoStmt:
			if !n.annotated("bounded") {
				p.Reportf(x.Pos(), "ungated goroutine spawn on a serving path; gate it behind a bounded pool/semaphore and annotate the spawner qb5000:bounded")
			}
		case *ast.SendStmt:
			if !p.nonBlockingSend(n, x) {
				p.Reportf(x.Pos(), "blocking channel send on a serving path; use select with default or a ctx/deadline escape")
			}
		}
		return true
	})
	if n.Lit != nil {
		p.checkCapturedGrowth(n)
	}
}

// isBuiltinCall reports whether call invokes the named predeclared builtin
// (not a shadowing declaration).
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// checkServingMake flags make(chan T, n) with a non-constant capacity.
func (p *Pass) checkServingMake(call *ast.CallExpr) {
	if !isBuiltinCall(p.Info, call, "make") || len(call.Args) < 2 {
		return
	}
	if t := p.Info.TypeOf(call.Args[0]); t == nil {
		return
	} else if _, isChan := t.Underlying().(*types.Chan); !isChan {
		return
	}
	if tv, ok := p.Info.Types[call.Args[1]]; !ok || tv.Value == nil {
		p.Reportf(call.Pos(), "channel on a serving path has a non-constant capacity; serving queues need constant bounds")
	}
}

// nonBlockingSend reports whether send is the comm statement of a select
// clause that cannot park forever: the select has a default, or another
// clause receives from a ctx.Done()/timer escape channel.
func (p *Pass) nonBlockingSend(n *FuncNode, send *ast.SendStmt) bool {
	ok := false
	inspectShallow(n.Body, func(node ast.Node) bool {
		sel, isSel := node.(*ast.SelectStmt)
		if !isSel {
			return true
		}
		mine := false
		escape := false
		for _, c := range sel.Body.List {
			cc, isCC := c.(*ast.CommClause)
			if !isCC {
				continue
			}
			if cc.Comm == nil {
				escape = true // default clause
				continue
			}
			if cc.Comm == send {
				mine = true
				continue
			}
			if isEscapeRecv(p.Info, cc.Comm) {
				escape = true
			}
		}
		if mine && escape {
			ok = true
			return false
		}
		return true
	})
	return ok
}

// isEscapeRecv reports whether a select comm statement receives from an
// escape-hatch channel: ctx.Done(), time.After(...), or a timer/ticker's .C.
func isEscapeRecv(info *types.Info, comm ast.Stmt) bool {
	var recv ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		recv = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			recv = s.Rhs[0]
		}
	}
	ue, ok := ast.Unparen(recv).(*ast.UnaryExpr)
	if !ok || ue.Op.String() != "<-" {
		return false
	}
	switch ch := ast.Unparen(ue.X).(type) {
	case *ast.CallExpr:
		if sel, ok := ch.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Done" {
				return true // ctx.Done() and alikes
			}
			if isPkgIdent(info, sel.X, "time") && (sel.Sel.Name == "After" || sel.Sel.Name == "Tick") {
				return true
			}
		}
	case *ast.SelectorExpr:
		if ch.Sel.Name == "C" {
			if t := info.TypeOf(ch.X); t != nil {
				s := t.String()
				if s == "*time.Timer" || s == "*time.Ticker" {
					return true
				}
			}
		}
	}
	return false
}

// checkCapturedGrowth flags growth of closure-captured slices and maps with
// no len() bound in the same closure body. Only locals captured from an
// enclosing function count: receiver fields and globals have their own
// owners, and variables declared inside the literal are per-invocation.
func (p *Pass) checkCapturedGrowth(n *FuncNode) {
	guarded := make(map[types.Object]bool)
	inspectShallow(n.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isBuiltinCall(p.Info, call, "len") || len(call.Args) != 1 {
			return true
		}
		if id, isID := ast.Unparen(call.Args[0]).(*ast.Ident); isID {
			if obj := p.Info.ObjectOf(id); obj != nil {
				guarded[obj] = true
			}
		}
		return true
	})
	captured := func(e ast.Expr) (types.Object, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil, false
		}
		v, ok := p.Info.ObjectOf(id).(*types.Var)
		if !ok || v.IsField() || guarded[v] {
			return nil, false
		}
		// Captured = declared outside the literal but not at package scope.
		if v.Pos() >= n.Lit.Pos() && v.Pos() <= n.Lit.End() {
			return nil, false
		}
		if v.Parent() == nil || v.Parent().Parent() == types.Universe {
			return nil, false
		}
		return v, true
	}
	inspectShallow(n.Body, func(node ast.Node) bool {
		as, ok := node.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
			if !isCall {
				continue
			}
			if !isBuiltinCall(p.Info, call, "append") || len(call.Args) == 0 {
				continue
			}
			if i >= len(as.Lhs) {
				continue
			}
			obj, isCap := captured(as.Lhs[i])
			if !isCap {
				continue
			}
			if dst, dstCap := captured(call.Args[0]); dstCap && dst == obj {
				p.Reportf(as.Pos(), "append grows captured %s with no len() bound in this closure; an unbounded queue on a serving path", obj.Name())
			}
		}
		for _, lhs := range as.Lhs {
			ix, isIx := ast.Unparen(lhs).(*ast.IndexExpr)
			if !isIx {
				continue
			}
			obj, isCap := captured(ix.X)
			if !isCap {
				continue
			}
			if t := p.Info.TypeOf(ix.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					p.Reportf(as.Pos(), "map write grows captured %s with no len() bound in this closure; an unbounded queue on a serving path", obj.Name())
				}
			}
		}
		return true
	})
}
