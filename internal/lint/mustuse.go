package lint

import (
	"go/ast"
	"go/types"
)

// The must-use engine: "this call's error result may not be thrown away".
// errflow (any error-returning call), faultpath (failpoint.Inject) and
// shedflow (Gate.TryAcquire/Acquire) are configurations of it: each supplies
// the producer predicate and the wording, the engine finds every producer
// call in a body and classifies how its result is disposed of.

// A disposal is one way a producer's error result is thrown away.
type disposal int

const (
	dropStmt  disposal = iota // the call is an expression statement
	dropDefer                 // the call is the operand of a defer statement
	dropGo                    // the call is the operand of a go statement
	dropBlank                 // every variable receiving the call's results is _
	dropDead                  // the error is bound to a variable no later read can see
)

// A mustUse configures the engine for one family of producers.
type mustUse struct {
	// produces reports whether call's error result is under the contract.
	produces func(p *Pass, call *ast.CallExpr) bool
	// message renders the finding for one disposal of a producer call; the
	// empty string means the contract tolerates that disposal. The dead-store
	// analysis (reaching definitions over the body) only runs for contracts
	// that have a dropDead message.
	message func(p *Pass, fb *funcBody, call *ast.CallExpr, d disposal) string
}

// swallowedMessage is the wording of the contracts whose error must
// propagate to the caller (faultpath, shedflow): noun names the producer,
// consequence says what its loss breaks. Deferred and spawned producers are
// outside those contracts.
func swallowedMessage(noun, consequence string, d disposal) string {
	switch d {
	case dropStmt:
		return noun + " result discarded; " + consequence
	case dropBlank:
		return noun + " result assigned to _; " + consequence
	case dropDead:
		return "the error from " + noun + " is never read after this assignment; " + consequence
	}
	return ""
}

// checkMustUse reports every producer call in one function body whose error
// result is disposed of in a way the contract does not tolerate.
func (p *Pass) checkMustUse(cfg mustUse, fb *funcBody) {
	inspectShallow(fb.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !cfg.produces(p, call) {
			return true
		}
		parents := p.parents(fb.file)
		parent := parents[call]
		for {
			pe, ok := parent.(*ast.ParenExpr)
			if !ok {
				break
			}
			parent = parents[pe]
		}
		var d disposal
		switch pa := parent.(type) {
		case *ast.ExprStmt:
			d = dropStmt
		case *ast.DeferStmt:
			d = dropDefer
		case *ast.GoStmt:
			if _, isLit := call.Fun.(*ast.FuncLit); isLit {
				return true // a spawned literal's body is checked as its own funcBody
			}
			d = dropGo
		case *ast.AssignStmt:
			// The variables receiving this call's results: all of them in
			// the multi-value form, the matching one otherwise. The error
			// is the last result.
			slots := pa.Lhs
			if len(pa.Rhs) != 1 {
				slots = nil
				for i, rhs := range pa.Rhs {
					if ast.Unparen(rhs) == call && i < len(pa.Lhs) {
						slots = pa.Lhs[i : i+1]
					}
				}
			}
			if len(slots) == 0 {
				return true
			}
			blank := true
			for _, lhs := range slots {
				if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
					blank = false
				}
			}
			if blank {
				d = dropBlank
				break
			}
			id, ok := slots[len(slots)-1].(*ast.Ident)
			if !ok || id.Name == "_" || cfg.message(p, fb, call, dropDead) == "" {
				return true
			}
			if obj := p.Info.ObjectOf(id); obj == nil || p.defRead(fb, pa, obj) {
				return true
			}
			d = dropDead
		default:
			return true // the result feeds an expression, a return, or an argument
		}
		if msg := cfg.message(p, fb, call, d); msg != "" {
			p.Reportf(call.Pos(), "%s", msg)
		}
		return true
	})
}

// defRead reports whether some read of obj is reached by the definition made
// at def (the assignment binding a producer's result). Identifiers appearing
// as plain assignment targets are writes, not reads.
func (p *Pass) defRead(fb *funcBody, def *ast.AssignStmt, obj types.Object) bool {
	parents := p.parents(fb.file)
	reach := fb.reaching(p.Info)
	read := false
	inspectShallow(fb.body, func(n ast.Node) bool {
		if read {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || p.Info.ObjectOf(id) != obj || isAssignTarget(parents, id) {
			return true
		}
		for _, d := range reach.defsAt(reach.elementOf(parents, id), obj) {
			if d.site == def {
				read = true
			}
		}
		return !read
	})
	return read
}

// isAssignTarget reports whether id is a bare left-hand side of an
// assignment (a write, not a read).
func isAssignTarget(parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	as, ok := parents[id].(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if lhs == id {
			return true
		}
	}
	return false
}
