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
		sums[n.ID] = &FuncSummary{Bounded: true} // greatest fixed point: cleared, never set
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
func summarize(n *FuncNode, sums map[string]*FuncSummary) bool {
	s := sums[n.ID]
	old := *s

	if n.Body != nil {
		scanSpawns(n, s)
		if !s.PerformsIO && bodyPerformsIO(n.Pkg.Info, n.Body) {
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
		// Filesystem effects propagate across go edges too: the disk does
		// not care which goroutine issued the write.
		if cs.PerformsIO {
			s.PerformsIO = true
		}
	}
	return *s != old
}

// scanSpawns sets the purely local bits: a go statement spawns, and one
// outside a qb5000:bounded function clears Bounded.
func scanSpawns(n *FuncNode, s *FuncSummary) {
	inspectShallow(n.Body, func(node ast.Node) bool {
		if _, ok := node.(*ast.GoStmt); ok {
			s.Spawns = true
			if !n.annotated("bounded") {
				s.Bounded = false
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
