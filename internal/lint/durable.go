package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"strings"
)

// Durable enforces the crash-safety contract around fsx.WriteAtomic
// (DESIGN.md §8). A path value annotated
//
//	// qb5000:durable
//
// on its declaration (var spec, := statement, or struct field), or named in
// a function's doc comment as
//
//	// qb5000:durable <param> [param...]
//
// holds the location of a durable file: one whose previous contents must
// survive a crash mid-replace. The analyzer reports any durable value that
// reaches a direct filesystem mutation — os.Create, os.WriteFile,
// os.Rename, os.Remove(All), os.Truncate, or os.OpenFile with write flags —
// because the bare os sequence tears on crash; the only sanctioned write
// path is a callee whose own parameter carries the annotation (fsx's
// WriteAtomic, or a wrapper that forwards to it). Handing a durable value
// to a loaded, unannotated callee whose summary says it PerformsIO is also
// reported: laundering the write through a helper must not void the
// contract.
//
// Inside package fsx itself the direct calls are the implementation, so the
// flow checks are skipped; instead a CFG must-analysis proves the protocol:
// every os.Rename is preceded, on all paths, by a Sync of the written
// *os.File (write-temp → fsync → close → rename).
//
// os.OpenFile with a provably read-only flag expression is quiet; an
// unprovable flag argument is reported (conservative in the loud direction:
// the annotation is an explicit request for checking). _test.go files are
// not checked.
var Durable = &Analyzer{
	Name: "durable",
	Doc:  "qb5000:durable paths must be written through fsx (atomic write-temp → fsync → rename), never by direct os calls",
	Run:  runDurable,
}

// osDurableBans maps the os-package calls that tear durable files on crash
// to the reason shown in the finding.
var osDurableBans = map[string]string{
	"Create":    "truncates in place (a crash mid-write destroys the previous contents)",
	"WriteFile": "truncates in place (a crash mid-write destroys the previous contents)",
	"Rename":    "renames without the fsync protocol (the data may not be on disk when the name changes)",
	"Remove":    "deletes a durable file",
	"RemoveAll": "deletes a durable file",
	"Truncate":  "truncates a durable file in place",
}

// durableParamIndices resolves the parameter names in a declaration's
// qb5000:durable doc annotation to positional indices. The contract
// transfers across package boundaries because callers look the callee's
// node up in the program-wide call graph.
func durableParamIndices(n *FuncNode) map[int]bool {
	if !n.annotated("durable") || n.Decl == nil {
		return nil
	}
	names := map[string]bool{}
	for _, name := range strings.Fields(n.ann["durable"][0]) {
		names[name] = true
	}
	idx := map[int]bool{}
	for i, obj := range paramNames(n.Decl.Type) {
		if obj != nil && names[obj.Name] {
			idx[i] = true
		}
	}
	return idx
}

// paramNames lists a function type's parameter identifiers positionally,
// with nil for unnamed parameters.
func paramNames(ft *ast.FuncType) []*ast.Ident {
	if ft == nil || ft.Params == nil {
		return nil
	}
	var out []*ast.Ident
	for _, f := range ft.Params.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
		}
		out = append(out, f.Names...)
	}
	return out
}

// collectDurable gathers this unit's durable objects: values whose
// declaration line (or the line above it) carries a bare annotation, struct
// fields annotated in their doc or line comment, and parameters named in
// function doc annotations.
func collectDurable(p *Pass) map[types.Object]bool {
	objs := map[types.Object]bool{}
	for _, file := range p.Files {
		// Bare annotations by line: the annotation marks the declaration on
		// its own line or the line directly below.
		annotated := map[int]bool{}
		for _, cg := range file.Comments {
			scanAnnotations(onDecl, cg.List, func(c *ast.Comment, _ string, args []string) {
				if args != nil && strings.TrimSpace(args[0]) == "" {
					annotated[p.Fset.Position(c.Pos()).Line] = true
				}
			})
		}
		markIdent := func(id *ast.Ident) {
			if id.Name == "_" {
				return
			}
			if obj := p.Info.Defs[id]; obj != nil {
				objs[obj] = true
			}
		}
		onAnnotatedLine := func(n ast.Node) bool {
			l := p.Fset.Position(n.Pos()).Line
			return annotated[l] || annotated[l-1]
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ValueSpec:
				if onAnnotatedLine(x) {
					for _, name := range x.Names {
						markIdent(name)
					}
				}
			case *ast.AssignStmt:
				if onAnnotatedLine(x) {
					for _, lhs := range x.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							markIdent(id)
						}
					}
				}
			case *ast.Field:
				if onAnnotatedLine(x) {
					for _, name := range x.Names {
						markIdent(name)
					}
				}
			case *ast.FuncDecl:
				idx := durableParamIndices(p.Prog.Graph.NodeFor(x))
				for i, name := range paramNames(x.Type) {
					if idx[i] {
						markIdent(name)
					}
				}
			}
			return true
		})
	}
	return objs
}

func runDurable(p *Pass) {
	if p.Pkg != nil && p.Pkg.Name() == "fsx" {
		checkFsxProtocol(p)
		return
	}
	durables := collectDurable(p)
	if len(durables) == 0 {
		return
	}
	mentions := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && durables[p.Info.ObjectOf(id)] {
				found = true
			}
			return !found
		})
		return found
	}
	for _, file := range p.Unit.nonTestFiles() {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			durableArgs := make([]int, 0, len(call.Args))
			for i, arg := range call.Args {
				if mentions(arg) {
					durableArgs = append(durableArgs, i)
				}
			}
			if len(durableArgs) == 0 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isPkgIdent(p.Info, sel.X, "os") {
				if reason, banned := osDurableBans[sel.Sel.Name]; banned {
					p.Reportf(call.Pos(), "os.%s on a qb5000:durable path %s; write it through fsx.WriteAtomic", sel.Sel.Name, reason)
					return true
				}
				if sel.Sel.Name == "OpenFile" {
					checkOpenFileFlags(p, call)
					return true
				}
			}
			tf := staticCallee(p.Info, call)
			if tf == nil {
				return true
			}
			id := funcID(tf)
			ann := durableParamIndices(p.Prog.Graph.Nodes[id])
			allAnnotated := true
			for _, i := range durableArgs {
				if !ann[i] {
					allAnnotated = false
				}
			}
			if allAnnotated {
				return true // the callee carries the contract forward
			}
			if cs := p.Prog.Summaries[id]; cs != nil && cs.PerformsIO {
				p.Reportf(call.Pos(), "qb5000:durable path handed to %s, which performs filesystem writes without a qb5000:durable parameter contract; route the write through fsx.WriteAtomic or annotate the callee's parameter", tf.Name())
			}
			return true
		})
	}
}

// checkOpenFileFlags reports os.OpenFile on a durable path unless the flag
// argument provably contains no write bits.
func checkOpenFileFlags(p *Pass, call *ast.CallExpr) {
	if len(call.Args) >= 2 {
		if tv, ok := p.Info.Types[call.Args[1]]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
			if v, exact := constant.Int64Val(tv.Value); exact {
				const writeBits = int64(os.O_WRONLY | os.O_RDWR | os.O_APPEND | os.O_CREATE | os.O_TRUNC)
				if v&writeBits == 0 {
					return // provably read-only
				}
			}
		}
	}
	p.Reportf(call.Pos(), "os.OpenFile on a qb5000:durable path with write flags (or flags the analyzer cannot prove read-only); write it through fsx.WriteAtomic")
}

// checkFsxProtocol is the must-analysis run inside package fsx, as an
// obligation-engine configuration: a Sync of an *os.File establishes that
// file, join = intersect keeps only what every incoming path established,
// and each os.Rename demands a non-empty set.
func checkFsxProtocol(p *Pass) {
	selectorCalls := func(n ast.Node, f func(call *ast.CallExpr, sel *ast.SelectorExpr)) {
		ast.Inspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					f(call, sel)
				}
			}
			return true
		})
	}
	protocol := obligation[types.Object]{
		join: setFact[types.Object, token.Pos].intersect,
		mint: func(n ast.Node, add func(types.Object, token.Pos)) {
			selectorCalls(n, func(call *ast.CallExpr, sel *ast.SelectorExpr) {
				id, ok := sel.X.(*ast.Ident)
				if !ok || sel.Sel.Name != "Sync" {
					return
				}
				if t := p.Info.TypeOf(id); t == nil || t.String() != "*os.File" {
					return
				}
				if obj := p.Info.ObjectOf(id); obj != nil {
					add(obj, call.Pos())
				}
			})
		},
		demand: func(n ast.Node, synced setFact[types.Object, token.Pos]) {
			selectorCalls(n, func(call *ast.CallExpr, sel *ast.SelectorExpr) {
				if sel.Sel.Name == "Rename" && isPkgIdent(p.Info, sel.X, "os") && len(synced) == 0 {
					p.Reportf(call.Pos(), "os.Rename without an fsync of the written file on every path to it; the atomic-write protocol is write-temp → fsync → close → rename")
				}
			})
		},
	}
	eachFuncBody(p.Unit, func(fb *funcBody) {
		if fb.lit == nil {
			checkObligations(p, fb.body, protocol)
		}
	})
}
