package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrFlow flags discarded error returns — the dropped-error class that turns
// a truncated trace file or a half-written snapshot into silently corrupt
// forecasting state. A call whose last result is `error` must have that
// result consumed; the analyzer reports:
//
//   - expression statements that discard an error-returning call;
//   - discarded `x.Close()` (deferred or not) where reaching definitions
//     prove x may have been opened writable (os.Create / os.OpenFile);
//     handles provably from os.Open are exempt because Close on a read
//     handle cannot lose data;
//   - `go f()` discarding f's error on a goroutine boundary;
//   - assignments that blank every error result (`_ = f()`).
//
// Print-family calls are exempt: fmt.Print/Println/Printf always, and
// fmt.Fprint* unless the destination's static type is *os.File or
// *bufio.Writer (writes into in-memory buffers cannot fail; writes to
// files and buffered file writers can). Diagnostic writes to os.Stderr /
// os.Stdout, methods on in-memory sinks (bytes.Buffer, strings.Builder),
// and Write on the hash.Hash interfaces are likewise exempt — their errors
// are documented as always nil or have no recovery path.
var ErrFlow = &Analyzer{
	Name: "errflow",
	Doc:  "error-returning calls must not be silently discarded",
	Run:  runErrFlow,
}

func runErrFlow(p *Pass) {
	eachFuncBody(p.Unit, func(fb *funcBody) {
		inspectShallow(fb.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if ok && p.returnsError(call) && !p.errExempt(call) {
				if msg := p.discardMessage(fb, call); msg != "" {
					p.Reportf(call.Pos(), "%s", msg)
				}
			}
			return true
		})
	})
}

// discardMessage renders the finding for an error-returning call whose
// result is thrown away — as an expression statement, as the operand of a
// defer or go statement, or into blank identifiers only — and returns ""
// when the result reaches anything else (an expression, a return, an
// argument, a variable). A partially blanked result (`v, _ := open()`)
// shows intent, and a variable that is never read afterwards is outside
// this analyzer.
func (p *Pass) discardMessage(fb *funcBody, call *ast.CallExpr) string {
	parents := p.parents(fb.file)
	parent := parents[call]
	for {
		pe, ok := parent.(*ast.ParenExpr)
		if !ok {
			break
		}
		parent = parents[pe]
	}
	verb := "call"
	switch pa := parent.(type) {
	case *ast.ExprStmt:
	case *ast.DeferStmt:
		verb = "deferred call"
	case *ast.GoStmt:
		if _, isLit := call.Fun.(*ast.FuncLit); isLit {
			return "" // a spawned literal's body is checked as its own funcBody
		}
		verb = "goroutine call"
	case *ast.AssignStmt:
		if !blanksResult(pa, call) {
			return ""
		}
		return "assignment blanks the error from " + callName(call) + "; handle it, or suppress with a reasoned //lint:ignore errflow"
	default:
		return ""
	}
	// Close provenance decides between the read-only exemption and a
	// report; a spawned Close has no element on this body's flow.
	if verb != "goroutine call" && p.isReadOnlyClose(fb, call) {
		return ""
	}
	return verb + " to " + callName(call) + " discards its error; check it, or blank it with an explanatory //lint:ignore errflow"
}

// blanksResult reports whether every variable receiving call's results in
// as is _: all of the left-hand side in the multi-value form, the matching
// one otherwise.
func blanksResult(as *ast.AssignStmt, call *ast.CallExpr) bool {
	slots := as.Lhs
	if len(as.Rhs) != 1 {
		slots = nil
		for i, rhs := range as.Rhs {
			if ast.Unparen(rhs) == call && i < len(as.Lhs) {
				slots = as.Lhs[i : i+1]
			}
		}
	}
	for _, lhs := range slots {
		if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
			return false
		}
	}
	return len(slots) > 0
}

// returnsError reports whether call's last result is the builtin error type.
func (p *Pass) returnsError(call *ast.CallExpr) bool {
	switch rt := p.Info.TypeOf(call).(type) {
	case nil:
		return false // no type information survived for this call
	case *types.Tuple:
		return rt.Len() > 0 && isErrorType(rt.At(rt.Len()-1).Type())
	default:
		return isErrorType(rt)
	}
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return t.String() == "error"
}

// errExempt applies the audited exemption list: calls whose error is
// documented never to matter for data integrity.
func (p *Pass) errExempt(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// Package-level fmt printers.
	if isPkgIdent(p.Info, sel.X, "fmt") {
		name := sel.Sel.Name
		if name == "Print" || name == "Println" || name == "Printf" {
			return true
		}
		if strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 {
			return p.isStdStream(call.Args[0]) || !p.isFailableWriter(p.Info.TypeOf(call.Args[0]))
		}
	}
	// Methods on in-memory sinks whose errors are always nil.
	if rt := p.Info.TypeOf(sel.X); rt != nil {
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		s := rt.String()
		if s == "bytes.Buffer" || s == "strings.Builder" {
			return true
		}
		// hash.Hash.Write is documented to never return an error; every
		// stdlib implementation honors that contract.
		if sel.Sel.Name == "Write" && (s == "hash.Hash" || s == "hash.Hash32" || s == "hash.Hash64") {
			return true
		}
	}
	return false
}

// isStdStream reports whether e is the os.Stderr or os.Stdout variable.
// Diagnostic writes there are exempt: a failing stderr has no recovery
// path, and flagging every progress line would drown the real findings.
func (p *Pass) isStdStream(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && (sel.Sel.Name == "Stderr" || sel.Sel.Name == "Stdout") && isPkgIdent(p.Info, sel.X, "os")
}

// isFailableWriter reports whether writes to t can actually fail: a real
// file or a buffered writer in front of one. Everything else (in-memory
// buffers, test writers behind io.Writer) is treated as infallible so the
// experiment harness's Fprintf fan-out stays quiet.
func (p *Pass) isFailableWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	s := t.String()
	return s == "*os.File" || s == "*bufio.Writer"
}

// isReadOnlyClose reports whether call is x.Close() where every definition
// of x reaching the statement is an os.Open call — a read-only handle whose
// Close cannot lose buffered writes.
func (p *Pass) isReadOnlyClose(fb *funcBody, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	reach := fb.reaching(p.Info)
	defs := reach.defsAt(reach.elementOf(p.parents(fb.file), call), obj)
	if len(defs) == 0 {
		return false
	}
	for _, d := range defs {
		if d.param || d.rhs == nil || !p.isOsOpenCall(d.rhs) {
			return false
		}
	}
	return true
}

// isOsOpenCall reports whether e is a direct os.Open(...) call.
func (p *Pass) isOsOpenCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Open" && isPkgIdent(p.Info, sel.X, "os")
}

// callName renders a compact name for diagnostics: pkg.Func, recv.Method,
// or the bare function name.
func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if base := baseIdent(f.X); base != nil {
			return base.Name + "." + f.Sel.Name
		}
		return f.Sel.Name
	}
	return "function"
}
