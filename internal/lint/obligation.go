package lint

import (
	"go/ast"
	"go/token"
	"sort"
)

// The obligation engine: a forward flow over one function body whose fact
// is the set of keys minted so far and not yet discharged, each with the
// position that minted it. handlelife (open → Close/return/transfer) and
// durable's fsync-before-rename protocol are configurations of it. With join = union the fact is "owed on some
// path" and what survives to the exit is a leak; with join = intersect it is
// "established on every path" and demand inspects it at the points that
// rely on it.

// An obligation configures the engine for one contract over keys of type K.
type obligation[K comparable] struct {
	// join merges the facts of converging paths: setFact.union or
	// setFact.intersect.
	join func(a, b setFact[K, token.Pos]) setFact[K, token.Pos]
	// mint calls add for each key element n puts into the fact, with the
	// position a diagnostic about that key should point at.
	mint func(n ast.Node, add func(K, token.Pos))
	// discharge returns f without the keys element n settles.
	discharge func(f setFact[K, token.Pos], n ast.Node) setFact[K, token.Pos]
	// forgiven reports whether returning through ret owes nothing for k: the
	// path is the failure branch of the very call that minted k.
	forgiven func(ret *ast.ReturnStmt, k K) bool
	// leak renders the finding for a key still owed at the function's exit.
	leak func(k K) string
	// demand sees every element with the fact holding before it, for
	// contracts checked at a point of use rather than at exit.
	demand func(n ast.Node, f setFact[K, token.Pos])
}

// checkObligations solves ob over body and reports, at their minting
// position, the keys that reach the function's exit. Every field of ob but
// join and mint is optional. An exiting call (os.Exit, log.Fatal, panic, a
// NoReturn callee) ends the path with nothing owed.
func checkObligations[K comparable](p *Pass, body *ast.BlockStmt, ob obligation[K]) {
	type fact = setFact[K, token.Pos]
	transfer := func(f fact, n ast.Node) fact {
		if len(f) > 0 && ob.discharge != nil {
			f = ob.discharge(f, n)
		}
		switch st := n.(type) {
		case *ast.ReturnStmt:
			if ob.forgiven != nil {
				for k := range f {
					if ob.forgiven(st, k) {
						f = f.without(k)
					}
				}
			}
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok && isExitingCall(p.Info, call, p.Prog.Summaries) {
				return fact{}
			}
		}
		// Mint after the discharge scan so `f, err := os.Open(p)` does not
		// settle the obligation it creates.
		ob.mint(n, func(k K, at token.Pos) { f = f.with(k, at) })
		return f
	}
	exit, reachable := forwardFlow(buildCFG(body), fact{}, transfer, ob.join, fact.equal, ob.demand)
	if !reachable || ob.leak == nil {
		return
	}
	keys := make([]K, 0, len(exit))
	for k := range exit {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return exit[keys[i]] < exit[keys[j]] })
	for _, k := range keys {
		p.Reportf(exit[k], "%s", ob.leak(k))
	}
}
