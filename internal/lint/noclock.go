package lint

import (
	"go/ast"
	"go/types"
)

// NoClock flags wall-clock reads in non-test code. Model quality in QB5000
// is a pure function of the trace: timestamps must come from the trace being
// replayed or from an injected clock, never from time.Now. Legitimate
// wall-clock uses (measuring elapsed training time in experiments, daemon
// scheduling in cmd/) carry a //lint:ignore noclock directive with a reason;
// inside the strict model packages (internal/{core,cluster,forecast,nn,
// timeseries,preprocess}) even suppressions are rejected.
var NoClock = &Analyzer{
	Name: "noclock",
	Doc:  "forbid time.Now/Since/Until in non-test code; use trace timestamps or an injected clock",
	Run:  runNoClock,
}

var clockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

func runNoClock(p *Pass) {
	for _, file := range p.Unit.nonTestFiles() {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil || !clockFuncs[fn.Name()] {
				return true
			}
			p.Reportf(sel.Pos(), "time.%s reads the wall clock; derive time from trace timestamps or an injected clock", fn.Name())
			return true
		})
	}
}
