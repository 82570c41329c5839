package lint

// GoLeak is the first summary-based analyzer: it inspects every `go`
// statement and asks the call graph whether the spawned goroutine can ever
// terminate. A goroutine whose function — directly or through static
// callees — sits in an unbounded loop with no exit path (no return, no
// break, no ctx.Done() escape that leaves the loop, no exiting call)
// outlives every request and accumulates for the life of the process,
// which is exactly the failure mode a continuously-retraining forecasting
// service cannot tolerate.
//
// It also reports:
//
//   - goroutines spawned inside an unbounded loop (`for {}` or a range
//     over a channel): one leak per message is a leak amplifier. Bounded
//     counted loops (the internal/parallel worker pool) are fine, and
//     fan-out should go through internal/parallel anyway;
//   - http.Server composite literals with neither ReadHeaderTimeout nor
//     ReadTimeout: without them every slow client parks a goroutine
//     forever, the same leak by another road.
//
// Test files are skipped: tests have deadlines and the runtime tears them
// down.

import (
	"go/ast"
	"go/types"
)

var GoLeak = &Analyzer{
	Name: "goleak",
	Doc:  "goroutines must have a termination path; servers must bound client time",
	Run:  runGoLeak,
}

func runGoLeak(p *Pass) {
	eachFuncBody(p.Unit, func(fb *funcBody) { p.checkGoLeakFunc(fb.body) })
	for _, file := range p.Unit.nonTestFiles() {
		p.checkServerLiterals(file)
	}
}

// checkGoLeakFunc inspects one function body's own go statements. Literal
// bodies are handled by their own invocation (loop depth resets at the
// closure boundary: a closure spawned once does not inherit its definition
// site's loops).
func (p *Pass) checkGoLeakFunc(body *ast.BlockStmt) {
	var loopDepth int // enclosing unbounded loops
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch x := n.(type) {
		case nil, *ast.FuncLit:
			return
		case *ast.ForStmt:
			unbounded := x.Cond == nil
			if unbounded {
				loopDepth++
			}
			walkChildren(x, walk)
			if unbounded {
				loopDepth--
			}
			return
		case *ast.RangeStmt:
			unbounded := p.isChannelRange(x)
			if unbounded {
				loopDepth++
			}
			walkChildren(x, walk)
			if unbounded {
				loopDepth--
			}
			return
		case *ast.GoStmt:
			if loopDepth > 0 {
				p.Reportf(x.Pos(), "goroutine spawned inside an unbounded loop; spawn a bounded worker pool (internal/parallel) and feed it instead")
			}
			p.checkSpawnTermination(x)
			walkChildren(x, walk)
			return
		}
		walkChildren(n, walk)
	}
	walk(body)
}

// checkSpawnTermination resolves the spawned function and consults its
// summary. Unresolvable spawn targets (function values, interface methods)
// are skipped: no summary, no verdict.
func (p *Pass) checkSpawnTermination(gs *ast.GoStmt) {
	var sum *FuncSummary
	switch f := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		if node := p.Prog.Graph.NodeForLit(f); node != nil {
			sum = p.Prog.Summary(node.ID)
		}
	default:
		if tf := staticCallee(p.Info, gs.Call); tf != nil {
			sum = p.Prog.Summary(funcID(tf))
		}
	}
	if sum != nil && sum.MayBlockForever {
		p.Reportf(gs.Pos(), "goroutine has no termination path (unbounded loop with no return, break, or exiting call reachable); select on ctx.Done() or a close(done) channel")
	}
}

// isChannelRange reports whether the range statement iterates a channel —
// the one range form whose trip count is unknowable statically.
func (p *Pass) isChannelRange(rs *ast.RangeStmt) bool {
	t := p.Info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// checkServerLiterals reports http.Server composite literals that bound
// neither header nor body read time.
func (p *Pass) checkServerLiterals(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok || !p.isHTTPServerType(cl) {
			return true
		}
		fields := make(map[string]bool, len(cl.Elts))
		for _, elt := range cl.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					fields[id.Name] = true
				}
			}
		}
		if !fields["ReadHeaderTimeout"] && !fields["ReadTimeout"] {
			p.Reportf(cl.Pos(), "http.Server without ReadHeaderTimeout or ReadTimeout: every slow client parks a goroutine forever; set timeouts")
		}
		return true
	})
}

// isHTTPServerType reports whether the composite literal's type is
// net/http.Server.
func (p *Pass) isHTTPServerType(cl *ast.CompositeLit) bool {
	t := p.Info.TypeOf(cl)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.String() == "net/http.Server"
}
