package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
)

// FloatEq flags `==` and `!=` between floating-point expressions outside
// test files. Exact float comparison is almost always a rounding bug waiting
// to happen; comparisons belong in an epsilon helper. Three escapes exist:
// a comparison against the constant zero (`x == 0`, `0 != y`) is exempt —
// it is the exact unset-sentinel / division-guard / sparsity-skip idiom, and
// no tolerance would be right there; the body of an approved epsilon helper
// (a function whose name signals a tolerance, e.g. almostEqual / withinEps)
// is skipped; and sites where exact bit equality is the point (determinism
// checks, sort tie-breaks on already identical inputs) carry a
// //lint:ignore floateq directive with a reason. Comparisons against any
// non-zero constant, or between two non-constants, stay findings.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "flag exact ==/!= between floats outside tests and epsilon helpers",
	Run:  runFloatEq,
}

// epsilonHelper matches function names that implement a tolerant comparison;
// their bodies may compare floats exactly (typically against 0 or to
// short-circuit identical values).
var epsilonHelper = regexp.MustCompile(`(?i)(approx|almost|within|eps|tolerance|close)`)

func runFloatEq(p *Pass) {
	eachFuncBody(p.Unit, func(fb *funcBody) {
		// The declaration's walk covers its literals; a closure assigned to
		// an epsilon-named variable is rare enough to handle via suppression.
		if fb.lit == nil && !epsilonHelper.MatchString(fb.decl.Name.Name) {
			p.checkFloatEq(fb.body)
		}
	})
}

func (p *Pass) checkFloatEq(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		tx, ty := p.Info.Types[be.X], p.Info.Types[be.Y]
		if !isFloat(tx.Type) && !isFloat(ty.Type) {
			return true
		}
		// A constant comparison is folded at compile time.
		if tx.Value != nil && ty.Value != nil {
			return true
		}
		if isZeroConst(tx) || isZeroConst(ty) {
			return true
		}
		// x != x is the portable NaN test; leave it alone.
		if types.ExprString(be.X) == types.ExprString(be.Y) {
			return true
		}
		p.Reportf(be.OpPos, "exact floating-point %s comparison; use an epsilon helper, or suppress with a reason where bit-identity is intended", be.Op)
		return true
	})
}

// isZeroConst reports a constant operand, typed or untyped, whose value is
// exactly zero.
func isZeroConst(tv types.TypeAndValue) bool {
	return tv.Value != nil && tv.Value.Kind() != constant.Unknown && constant.Sign(tv.Value) == 0
}
