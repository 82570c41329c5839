package lint

// HandleLife tracks close obligations through each function with the
// forward-flow solver and across functions with the call-graph summaries:
// opening a handle (os.Open/Create/OpenFile/CreateTemp, net.Listen/Dial*,
// or any loaded callee whose summary says ReturnsOpen) mints an obligation
// that must be discharged on every path that returns normally. Discharges:
//
//   - x.Close() anywhere in the statement's subtree — plain, deferred, or
//     inside a deferred closure;
//   - returning x: the obligation transfers to the caller (the function's
//     ReturnsOpen summary bit makes every caller re-run this same check on
//     the returned handle);
//   - passing x to a loaded callee that closes the matching parameter
//     (per its Closes summary), or to an unloaded callee outside the known
//     non-owner list (assumed ownership transfer — the quiet direction);
//   - storing x anywhere (field, slice, channel send): it escaped the
//     function's ownership and path-local reasoning ends;
//   - an error return (`return err`, `return fmt.Errorf(...)`) clears all
//     obligations on that path: the open-failure branch holds a nil handle
//     and cleanup belongs to whoever sees the error;
//   - an exiting call (os.Exit, log.Fatal*, panic, a NoReturn callee):
//     the process dies, the kernel closes.
//
// Known non-owners — wrappers and one-shot readers that never take
// ownership of the handle passed to them: fmt.Fprint*, io.Copy/ReadAll/
// WriteString, bufio.NewReader/NewWriter/NewScanner, json.NewEncoder/
// NewDecoder, csv.NewReader/NewWriter. This is exactly the dump-trace bug
// class from PR 3: `w := bufio.NewWriter(f)` does not discharge f.
//
// The remaining obligations at the function's (reachable) exit are
// reported at their open site. Test files are skipped.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var HandleLife = &Analyzer{
	Name: "handlelife",
	Doc:  "opened handles must be closed, returned, or handed to an owner on every path",
	Run:  runHandleLife,
}

func runHandleLife(p *Pass) {
	eachFuncBody(p.Unit, func(fb *funcBody) { p.checkHandleFunc(fb.body) })
}

// checkHandleFunc configures the obligation engine for handles: the fact
// maps each obligated variable to its open site, and what survives to the
// exit is reported there.
func (p *Pass) checkHandleFunc(body *ast.BlockStmt) {
	sums := p.Prog.Summaries
	checkObligations(p, body, obligation[types.Object]{
		join: setFact[types.Object, token.Pos].union,
		mint: func(n ast.Node, add func(types.Object, token.Pos)) {
			st, ok := n.(*ast.AssignStmt)
			if !ok || len(st.Rhs) != 1 {
				return
			}
			if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok && isOpenerCall(p.Info, call, sums) {
				if id, ok := st.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					if obj := p.Info.ObjectOf(id); obj != nil {
						add(obj, call.Pos())
					}
				}
			}
		},
		discharge: func(f setFact[types.Object, token.Pos], n ast.Node) setFact[types.Object, token.Pos] {
			return p.dischargeUses(f, n, sums)
		},
		forgiven: func(ret *ast.ReturnStmt, _ types.Object) bool { return p.isErrorReturn(ret) },
		leak: func(obj types.Object) string {
			return obj.Name() + " is opened here but not closed on every path; close it, return it, or hand it to an owner"
		},
	})
}

// dischargeUses scans one element's subtree for uses of obligated variables
// and removes the obligations the use discharges. The classification:
// Close and ownership transfers discharge; method calls on the handle and
// non-owner wrappers keep it; any unclassified appearance is an escape and
// discharges (path-local reasoning cannot follow a stored handle).
func (p *Pass) dischargeUses(f setFact[types.Object, token.Pos], n ast.Node, sums map[string]*FuncSummary) setFact[types.Object, token.Pos] {
	obligated := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj := p.Info.ObjectOf(id)
		if obj == nil {
			return nil
		}
		if _, ok := f[obj]; !ok {
			return nil
		}
		return obj
	}
	discharged := make(map[types.Object]bool)
	neutral := make(map[ast.Expr]bool) // occurrences already classified as safe
	classify := func(e ast.Expr) { neutral[e] = true }

	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if obj := obligated(sel.X); obj != nil {
					if sel.Sel.Name == "Close" && len(x.Args) == 0 {
						discharged[obj] = true
					}
					classify(sel.X) // receiver use: Close or Read/Write/Stat
				}
			}
			for j, arg := range x.Args {
				obj := obligated(arg)
				if obj == nil {
					continue
				}
				switch {
				case p.isNonOwnerCall(x):
					classify(ast.Unparen(arg)) // borrowed, not owned
				case p.loadedCalleeCloses(x, j, sums):
					discharged[obj] = true
					classify(ast.Unparen(arg))
				case p.isLoadedCallee(x, sums):
					classify(ast.Unparen(arg)) // summary says it doesn't close
				default:
					discharged[obj] = true // unknown external: assume transfer
					classify(ast.Unparen(arg))
				}
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if obj := obligated(res); obj != nil {
					discharged[obj] = true // caller inherits via ReturnsOpen
					classify(ast.Unparen(res))
				}
			}
		case *ast.BinaryExpr:
			// Comparisons (f != nil) are neutral.
			if obj := obligated(x.X); obj != nil {
				classify(ast.Unparen(x.X))
			}
			if obj := obligated(x.Y); obj != nil {
				classify(ast.Unparen(x.Y))
			}
		}
		return true
	})
	// Any remaining appearance of an obligated variable is an escape.
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok || neutral[id] {
			return true
		}
		obj := p.Info.ObjectOf(id)
		if obj == nil {
			return true
		}
		if _, open := f[obj]; open && !discharged[obj] {
			// Re-check: the minting assignment's own LHS is not a use.
			if as, isAssign := n.(*ast.AssignStmt); isAssign {
				for _, lhs := range as.Lhs {
					if lhs == m {
						return true
					}
				}
			}
			discharged[obj] = true
		}
		return true
	})
	for obj := range discharged {
		f = f.without(obj)
	}
	return f
}

// isErrorReturn reports whether the return carries a live error value (an
// identifier or call of type error, not the nil literal).
func (p *Pass) isErrorReturn(ret *ast.ReturnStmt) bool {
	for _, res := range ret.Results {
		e := ast.Unparen(res)
		if id, ok := e.(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		if t := p.Info.TypeOf(e); t != nil && t.String() == "error" {
			return true
		}
	}
	return false
}

// nonOwnerFuncs lists pkg.Func wrappers that borrow a handle argument
// without taking ownership of it.
var nonOwnerFuncs = map[string]bool{
	"io.Copy": true, "io.CopyN": true, "io.ReadAll": true, "io.WriteString": true, "io.ReadFull": true,
	"bufio.NewReader": true, "bufio.NewWriter": true, "bufio.NewScanner": true, "bufio.NewReadWriter": true,
	"json.NewEncoder": true, "json.NewDecoder": true,
	"csv.NewReader": true, "csv.NewWriter": true,
}

// isNonOwnerCall reports whether the call is a known borrower: fmt.Fprint*
// or one of the nonOwnerFuncs wrappers.
func (p *Pass) isNonOwnerCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.Info.Uses[pkgID].(*types.PkgName)
	if !ok {
		return false
	}
	path := pn.Imported().Path()
	if path == "fmt" && strings.HasPrefix(sel.Sel.Name, "Fprint") {
		return true
	}
	// Index by package *path* tail + func so encoding/json and encoding/csv
	// resolve regardless of the local import name.
	short := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		short = path[i+1:]
	}
	return nonOwnerFuncs[short+"."+sel.Sel.Name]
}

// loadedCalleeCloses reports whether the call's static callee is loaded and
// closes its j-th parameter per its summary.
func (p *Pass) loadedCalleeCloses(call *ast.CallExpr, j int, sums map[string]*FuncSummary) bool {
	tf := staticCallee(p.Info, call)
	if tf == nil {
		return false
	}
	cs := sums[funcID(tf)]
	return cs != nil && cs.Closes[j]
}

// isLoadedCallee reports whether the call's static callee has a summary
// (i.e. its body was part of this analysis run).
func (p *Pass) isLoadedCallee(call *ast.CallExpr, sums map[string]*FuncSummary) bool {
	tf := staticCallee(p.Info, call)
	if tf == nil {
		return false
	}
	return sums[funcID(tf)] != nil
}
