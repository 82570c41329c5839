package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// MapOrder flags `range` over a map whose body performs order-sensitive work
// — appending to a slice that outlives the loop, accumulating into a
// floating-point variable (float addition is not associative, so iteration
// order changes the bits), or fanning work out through internal/parallel —
// unless a deterministic sort follows the loop in the enclosing statement
// list. This is the classic silent-nondeterminism bug in centroid and
// feature loops: Go randomizes map iteration order per run, so every such
// loop silently reorders downstream arithmetic.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive work inside map iteration without a subsequent sort",
	Run:  runMapOrder,
}

func runMapOrder(p *Pass) {
	for _, file := range p.Files {
		parents := p.parents(file)
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			hazard := p.mapRangeHazard(rs)
			if hazard == "" {
				return true
			}
			if sortFollows(p, parents, rs) {
				return true
			}
			p.Reportf(rs.For, "map iteration order is randomized and the loop body %s; iterate over sorted keys or sort the result afterwards", hazard)
			return true
		})
	}
}

// mapRangeHazard scans the loop body for order-sensitive operations and
// describes the first one found. Two shapes are deliberately exempt because
// their result does not depend on iteration order: work keyed by the range
// key itself (out[k] += v builds each key's value independently), and the
// clone idiom out[k] = append([]T(nil), v...), which grows a fresh slice.
func (p *Pass) mapRangeHazard(rs *ast.RangeStmt) string {
	var keyObj types.Object
	if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
		keyObj = p.Info.ObjectOf(id)
	}
	var hazard string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if hazard != "" {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
				return true
			}
			base := baseIdent(st.Lhs[0])
			if base == nil || !p.declaredOutside(base, rs) {
				return true
			}
			if p.indexedByKey(st.Lhs[0], keyObj) {
				return true
			}
			if call, ok := st.Rhs[0].(*ast.CallExpr); ok && st.Tok == token.ASSIGN {
				if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" && len(call.Args) > 0 {
					// Only the grow idiom x = append(x, ...) records map
					// order in element positions.
					if arg := baseIdent(call.Args[0]); arg != nil && p.Info.ObjectOf(arg) != nil &&
						p.Info.ObjectOf(arg) == p.Info.ObjectOf(base) {
						hazard = "appends to " + base.Name + " (element order follows map order)"
						return false
					}
				}
			}
			switch st.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if isFloat(p.Info.TypeOf(st.Lhs[0])) {
					hazard = "accumulates floats into " + base.Name + " (float addition is order-sensitive)"
					return false
				}
			}
		case *ast.CallExpr:
			if isParallelCall(p, st) {
				hazard = "dispatches work through internal/parallel in map order"
				return false
			}
		}
		return true
	})
	return hazard
}

// indexedByKey reports whether lhs is an index expression whose index is the
// range statement's own key variable.
func (p *Pass) indexedByKey(lhs ast.Expr, keyObj types.Object) bool {
	if keyObj == nil {
		return false
	}
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return false
	}
	id, ok := ix.Index.(*ast.Ident)
	return ok && p.Info.ObjectOf(id) == keyObj
}

// baseIdent unwraps selectors, indexing, parens, and derefs down to the root
// identifier of an assignable expression.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether id's object is declared outside the range
// statement, i.e. the mutated state outlives the loop.
func (p *Pass) declaredOutside(id *ast.Ident, rs *ast.RangeStmt) bool {
	obj := p.Info.ObjectOf(id)
	if obj == nil {
		// No type info (broken fixture import); assume it escapes.
		return true
	}
	return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
}

// isParallelCall reports whether call invokes a function from the
// internal/parallel package (resolved via type info, with a syntactic
// fallback on the package name for fixtures).
func isParallelCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	if pn, ok := p.Info.Uses[x].(*types.PkgName); ok {
		return pathIsParallel(pn.Imported().Path())
	}
	return x.Name == "parallel"
}

func pathIsParallel(path string) bool {
	return path == "qb5000/internal/parallel" || path == "parallel"
}

var sortishName = regexp.MustCompile(`(?i)sort`)

// sortFollows climbs from the range statement through enclosing statement
// lists and reports whether any later sibling statement (at any nesting
// level on the way up to the function boundary) performs a sort.
func sortFollows(p *Pass, parents map[ast.Node]ast.Node, rs *ast.RangeStmt) bool {
	var cur ast.Node = rs
	for {
		parent := parents[cur]
		if parent == nil {
			return false
		}
		switch pb := parent.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			if laterStmtSorts(p, pb.List, cur) {
				return true
			}
		case *ast.CaseClause:
			if laterStmtSorts(p, pb.Body, cur) {
				return true
			}
		case *ast.CommClause:
			if laterStmtSorts(p, pb.Body, cur) {
				return true
			}
		}
		cur = parent
	}
}

func laterStmtSorts(p *Pass, list []ast.Stmt, cur ast.Node) bool {
	idx := -1
	for i, s := range list {
		if s == cur {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	for _, s := range list[idx+1:] {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isSortish(p, call) {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// isSortish recognizes calls into the sort/slices packages and, as a
// fallback, any callee whose name mentions "sort" (covering local helpers
// like sortedKeys).
func isSortish(p *Pass, call *ast.CallExpr) bool {
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		if x, ok := fn.X.(*ast.Ident); ok {
			if pn, ok := p.Info.Uses[x].(*types.PkgName); ok {
				path := pn.Imported().Path()
				if path == "sort" || path == "slices" {
					return true
				}
			}
		}
		return sortishName.MatchString(fn.Sel.Name)
	case *ast.Ident:
		return sortishName.MatchString(fn.Name)
	}
	return false
}

// parentMap records each node's parent within the file.
func parentMap(file *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
