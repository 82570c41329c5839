package lint

// GoLeak reports a go statement inside an unbounded loop (`for` with no
// condition, or a range over a channel): one goroutine per trip is a leak
// amplifier, whether or not each one exits, and a spawn that ends at once
// (`go log.Printf(…)` per tick) is invisible to any runtime goroutine
// count. Bounded counted loops (the internal/parallel worker pool) are
// fine, and fan-out should go through internal/parallel anyway.
//
// The other goroutine contracts are held by tests: the daemon's run loop
// must return promptly once its context ends with no goroutine left behind
// (leakcheck), and its server must cut off a stalled request header.
//
// Test files are skipped: tests have deadlines and the runtime tears them
// down.

import (
	"go/ast"
	"go/types"
)

var GoLeak = &Analyzer{
	Name: "goleak",
	Doc:  "no goroutine spawns inside an unbounded loop",
	Run:  runGoLeak,
}

// runGoLeak inspects each function body's own go statements. Literal
// bodies are visited as bodies of their own (loop depth resets at the
// closure boundary: a closure spawned once does not inherit its definition
// site's loops).
func runGoLeak(p *Pass) {
	eachFuncBody(p.Unit, func(fb *funcBody) {
		var loopDepth int // enclosing unbounded loops
		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			switch x := n.(type) {
			case nil, *ast.FuncLit:
				return
			case *ast.ForStmt, *ast.RangeStmt:
				unbounded := p.isUnboundedLoop(x)
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
			}
			walkChildren(n, walk)
		}
		walk(fb.body)
	})
}

// isUnboundedLoop reports whether loop is a for with no condition or a
// range over a channel — the loops whose trip count is unknowable
// statically.
func (p *Pass) isUnboundedLoop(loop ast.Node) bool {
	switch x := loop.(type) {
	case *ast.ForStmt:
		return x.Cond == nil
	case *ast.RangeStmt:
		t := p.Info.TypeOf(x.X)
		if t == nil {
			return false
		}
		_, ok := t.Underlying().(*types.Chan)
		return ok
	}
	return false
}
