package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ShedFlow enforces the overload-propagation contract around
// internal/admission (DESIGN.md §9). An admission check that fires but whose
// signal goes nowhere is worse than none at all: the gate counts a shed
// request while the handler serves it anyway. Three checks:
//
//   - Propagation: the error returned by Gate.TryAcquire / Gate.Acquire
//     must flow somewhere. A result discarded as a statement, assigned to
//     `_`, or stored in a variable no later use can see (the must-use
//     engine, configured as for faultpath) silently un-sheds the request.
//   - Release obligation: a successful acquire holds inflight weight until
//     the matching <gate>.Release. The obligation engine (configured as
//     for handlelife) requires a Release on every path that can follow a
//     successful acquire; a return inside the acquire error's own
//     `err != nil` block is the shed path and owes nothing. A leaked
//     permit never comes back — the gate's capacity ratchets down until
//     the server sheds everything.
//   - 429 mapping: an HTTP handler (func(w http.ResponseWriter,
//     r *http.Request)) whose static call tree performs an admission check
//     must map ErrOverload to 429 somewhere in that tree — a mention of
//     http.StatusTooManyRequests (or a literal 429). Shedding with a 500
//     tells clients to retry immediately, which is the opposite of
//     backpressure.
//
// The admission package itself is exempt (it implements the primitives),
// as are _test.go files.
var ShedFlow = &Analyzer{
	Name: "shedflow",
	Doc:  "admission errors must propagate to a 429 and every acquired permit must be released on all paths",
	Run:  runShedFlow,
}

// admissionPkgPath is where the gate lives; methods of the same names on
// other types are ignored.
const admissionPkgPath = "qb5000/internal/admission"

// gateMethod reports the receiver expression and method name if call is a
// TryAcquire/Acquire/Release on an admission.Gate.
func gateMethod(info *types.Info, call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "TryAcquire", "Acquire", "Release":
	default:
		return nil, "", false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return nil, "", false
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Name() != "Gate" || named.Obj().Pkg() == nil ||
		named.Obj().Pkg().Path() != admissionPkgPath {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// isAcquireCall reports an admission acquire (the error-producing pair).
func isAcquireCall(info *types.Info, call *ast.CallExpr) (ast.Expr, string, bool) {
	recv, name, ok := gateMethod(info, call)
	if !ok || name == "Release" {
		return nil, "", false
	}
	return recv, name, true
}

func runShedFlow(p *Pass) {
	if strings.TrimSuffix(p.Unit.Path, "_test") == admissionPkgPath {
		return
	}
	eachFuncBody(p.Unit, func(fb *funcBody) {
		p.checkMustUse(acquireMustUse, fb)
		p.checkReleaseObligations(fb.body)
		if fb.lit == nil {
			p.checkHandler429(fb.decl)
		}
	})
}

// acquireMustUse is the propagation check as a must-use configuration:
// each acquire error must reach a real use.
var acquireMustUse = mustUse{
	produces: func(p *Pass, call *ast.CallExpr) bool {
		_, _, ok := isAcquireCall(p.Info, call)
		return ok
	},
	message: func(p *Pass, _ *funcBody, call *ast.CallExpr, d disposal) string {
		_, name, _ := isAcquireCall(p.Info, call)
		return swallowedMessage("admission "+name, "ErrOverload never propagates and overload is never shed", d)
	},
}

// acquireBinding matches `err := <gate>.TryAcquire/Acquire(...)` — the one
// statement shape that takes a permit — returning the gate class (the
// receiver expression, textually), the bound error variable, and the call.
func (p *Pass) acquireBinding(n ast.Node) (class string, errVar types.Object, call *ast.CallExpr) {
	as, ok := n.(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
		return "", nil, nil
	}
	call, ok = ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return "", nil, nil
	}
	recv, _, ok := isAcquireCall(p.Info, call)
	id, isID := as.Lhs[0].(*ast.Ident)
	if !ok || !isID || id.Name == "_" {
		return "", nil, nil
	}
	return types.ExprString(recv), p.Info.ObjectOf(id), call
}

// checkReleaseObligations configures the obligation engine for permits: a
// bound acquire mints its gate class, a Release anywhere in an element's
// subtree — plain, deferred, or inside a deferred closure — discharges it,
// and a return on the acquire's own shed path is forgiven.
func (p *Pass) checkReleaseObligations(body *ast.BlockStmt) {
	shedReturns := p.shedReturns(body)
	checkObligations(p, body, obligation[string]{
		join: setFact[string, token.Pos].union,
		mint: func(n ast.Node, add func(string, token.Pos)) {
			if class, _, call := p.acquireBinding(n); call != nil {
				add(class, call.Pos())
			}
		},
		discharge: func(f setFact[string, token.Pos], n ast.Node) setFact[string, token.Pos] {
			ast.Inspect(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if recv, name, ok := gateMethod(p.Info, call); ok && name == "Release" {
						f = f.without(types.ExprString(recv))
					}
				}
				return true
			})
			return f
		},
		forgiven: func(ret *ast.ReturnStmt, class string) bool { return shedReturns[ret][class] },
		leak: func(class string) string {
			return "admission permit on " + class + " acquired here is not released on every path; pair a successful acquire with a deferred " + class + ".Release"
		},
	})
}

// shedReturns finds the returns that owe no Release: those inside the body
// of an `if err != nil` whose err is the binding of an acquire on some gate
// class. Each such return clears that class (the acquire failed on the path
// that reaches it — the fact was minted path-insensitively).
func (p *Pass) shedReturns(body *ast.BlockStmt) map[*ast.ReturnStmt]map[string]bool {
	errClass := make(map[types.Object]string)
	inspectShallow(body, func(n ast.Node) bool {
		if class, errVar, call := p.acquireBinding(n); call != nil && errVar != nil {
			errClass[errVar] = class
		}
		return true
	})
	out := make(map[*ast.ReturnStmt]map[string]bool)
	if len(errClass) == 0 {
		return out
	}
	inspectShallow(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok || cond.Op != token.NEQ {
			return true
		}
		id, ok := ast.Unparen(cond.X).(*ast.Ident)
		if !ok {
			return true
		}
		class, tracked := errClass[p.Info.ObjectOf(id)]
		if !tracked || !isNilIdent(cond.Y) {
			return true
		}
		inspectShallow(ifs.Body, func(m ast.Node) bool {
			if ret, isRet := m.(*ast.ReturnStmt); isRet {
				if out[ret] == nil {
					out[ret] = make(map[string]bool)
				}
				out[ret][class] = true
			}
			return true
		})
		return true
	})
	return out
}

// isNilIdent reports the predeclared nil.
func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// checkHandler429 verifies the overload-status mapping for one declared
// HTTP handler: if anything in its static call tree acquires admission,
// something in that tree must produce a 429.
func (p *Pass) checkHandler429(fd *ast.FuncDecl) {
	if !p.isHandlerSig(fd.Type) {
		return
	}
	acquires := false
	maps429 := false
	for _, m := range staticTree(p.Prog.Graph.NodeFor(fd)) {
		if m.Body == nil {
			continue
		}
		ast.Inspect(m.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if _, _, isAcq := isAcquireCall(m.Pkg.Info, call); isAcq {
					acquires = true
				}
			}
			if mentions429(m.Pkg.Info, n) {
				maps429 = true
			}
			return true
		})
	}
	if acquires && !maps429 {
		p.Reportf(fd.Pos(), "HTTP handler %s performs admission checks but never maps ErrOverload to 429 (http.StatusTooManyRequests)", fd.Name.Name)
	}
}

// isHandlerSig matches func(w http.ResponseWriter, r *http.Request).
func (p *Pass) isHandlerSig(ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	var typs []string
	for _, field := range ft.Params.List {
		t := p.Info.TypeOf(field.Type)
		if t == nil {
			return false
		}
		names := len(field.Names)
		if names == 0 {
			names = 1
		}
		for i := 0; i < names; i++ {
			typs = append(typs, t.String())
		}
	}
	return len(typs) == 2 && typs[0] == "net/http.ResponseWriter" && typs[1] == "*net/http.Request"
}

// mentions429 reports a node that produces the Too Many Requests status:
// the http.StatusTooManyRequests constant or a literal 429.
func mentions429(info *types.Info, n ast.Node) bool {
	switch x := n.(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name == "StatusTooManyRequests" && isPkgIdent(info, x.X, "net/http")
	case *ast.BasicLit:
		return x.Kind == token.INT && x.Value == "429"
	}
	return false
}
