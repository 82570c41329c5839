package lint

// CtxProp enforces context propagation one level deeper than ctxfirst: a
// function that was handed a context.Context must actually thread it.
// Two failure shapes are reported, both summary-based:
//
//  1. A ctx-carrying function passes a *fresh* context —
//     context.Background() or context.TODO() — as a call argument. The
//     cancellation chain is severed at that exact argument.
//  2. A ctx-carrying function statically calls a loaded function that does
//     not accept a context but (transitively, per its summary) conjures a
//     fresh one inside. The wrapper swallows the caller's deadline one
//     level down where no diff review will see it.
//
// Calls that accept a context and receive any context-typed argument are
// fine: deriving (WithCancel/WithTimeout) counts as forwarding. Test files
// are skipped, and so are nil-ctx guards (`if ctx == nil { ctx =
// context.Background() }`) — those assign, not pass.

import (
	"go/ast"
)

var CtxProp = &Analyzer{
	Name: "ctxprop",
	Doc:  "a function that receives a context must forward it, not mint fresh ones",
	Run:  runCtxProp,
}

func runCtxProp(p *Pass) {
	// A closure sees its enclosing ctx via capture: literals under a
	// ctx-carrying declaration are checked too, and literals with their own
	// ctx parameter regardless.
	eachFuncBody(p.Unit, func(fb *funcBody) {
		if p.hasCtxParam(fb.decl.Type) || p.hasCtxParam(fb.typ) {
			p.checkCtxPropFunc(fb.body)
		}
	})
}

// hasCtxParam reports whether the function type declares a context.Context
// parameter.
func (p *Pass) hasCtxParam(ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, f := range ft.Params.List {
		if p.isCtxType(f.Type) {
			return true
		}
	}
	return false
}

// checkCtxPropFunc walks one ctx-carrying body reporting severed chains.
func (p *Pass) checkCtxPropFunc(body *ast.BlockStmt) {
	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Shape 1: a fresh context passed as an argument.
		for _, arg := range call.Args {
			if ac, ok := ast.Unparen(arg).(*ast.CallExpr); ok && isFreshCtxCall(p.Info, ac) {
				p.Reportf(ac.Pos(), "%s severs the cancellation chain: this function received a ctx; pass it (or a context derived from it) instead of a fresh one", callName(ac))
			}
		}
		// Shape 2: a loaded callee that swallows the context internally.
		tf := staticCallee(p.Info, call)
		if tf == nil {
			return true
		}
		sum := p.Prog.Summary(funcID(tf))
		if sum != nil && !sum.AcceptsCtx && sum.UsesFreshCtx {
			p.Reportf(call.Pos(), "call to %s drops the context: the callee takes none and mints context.Background() internally; use a ctx-accepting variant or plumb the context through", callName(call))
		}
		return true
	})
}
