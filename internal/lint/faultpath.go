package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
)

// FaultPath keeps the fault-injection registry honest (DESIGN.md §8). Three
// whole-program cross-checks over every call into internal/failpoint:
//
//   - Registration integrity: every failpoint.Inject site must name a
//     failpoint that failpoint.Register declares, and each name is declared
//     exactly once — a typo'd site name would otherwise compile fine and
//     silently never fire (the same failure mode the annotation-key check
//     guards against).
//   - Reachability: every registered failpoint must have at least one
//     Inject site; a registered-but-uninjectable name is dead fault
//     coverage the crash matrix believes it is exercising.
//   - Propagation: the error returned by Inject must flow somewhere — an
//     Inject whose result is dropped (ExprStmt, `_ =`, or an err variable
//     never read afterwards; the must-use engine of mustuse.go) is a
//     swallowed fault path: the schedule fires, the test believes a fault
//     was injected, and the code under test never sees it.
//
// Site names must be string constants so the cross-reference is decidable;
// a dynamic name is itself reported. _test.go files may Inject freely (they
// arm and probe sites) but their calls still count toward reachability.
var FaultPath = &Analyzer{
	Name: "faultpath",
	Doc:  "failpoint sites must be registered exactly once, reachable, and their injected errors must propagate",
	Run:  runFaultPath,
}

// An fpSite is one Register or Inject call, attributed to its unit so each
// finding is reported exactly once program-wide.
type fpSite struct {
	name string
	pos  token.Pos
	unit *Package
}

// An fpRegistry is the program-wide cross-reference of failpoint traffic.
type fpRegistry struct {
	regs    map[string][]fpSite // Register calls by constant site name
	injects map[string][]fpSite // Inject calls by constant site name
	dynamic []fpSite            // calls whose name argument is not constant
}

// failpointPkgPath is where the registry lives; calls into any other
// package named "failpoint" are ignored.
const failpointPkgPath = "qb5000/internal/failpoint"

// failpoints builds the registry lazily, once per Program.
func (prog *Program) failpoints() *fpRegistry {
	if prog.failpts == nil {
		reg := &fpRegistry{regs: map[string][]fpSite{}, injects: map[string][]fpSite{}}
		for _, u := range prog.Units {
			for _, file := range u.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || (sel.Sel.Name != "Register" && sel.Sel.Name != "Inject") {
						return true
					}
					if !isPkgIdent(u.Info, sel.X, failpointPkgPath) || len(call.Args) != 1 {
						return true
					}
					site := fpSite{pos: call.Pos(), unit: u}
					tv, ok := u.Info.Types[call.Args[0]]
					if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
						reg.dynamic = append(reg.dynamic, site)
						return true
					}
					site.name = constant.StringVal(tv.Value)
					if sel.Sel.Name == "Register" {
						reg.regs[site.name] = append(reg.regs[site.name], site)
					} else {
						reg.injects[site.name] = append(reg.injects[site.name], site)
					}
					return true
				})
			}
		}
		prog.failpts = reg
	}
	return prog.failpts
}

func runFaultPath(p *Pass) {
	reg := p.Prog.failpoints()
	inUnit := func(s fpSite) bool { return s.unit == p.Unit }

	for _, s := range reg.dynamic {
		if inUnit(s) {
			p.Reportf(s.pos, "failpoint site name must be a string constant so the registry cross-check can see it")
		}
	}
	for _, name := range sortedKeys(reg.regs) {
		sites := reg.regs[name]
		for _, dup := range sites[1:] {
			if inUnit(dup) {
				p.Reportf(dup.pos, "failpoint %q is registered more than once (first at %s); Register panics on the duplicate at init", name, p.Fset.Position(sites[0].pos))
			}
		}
		if len(reg.injects[name]) == 0 && inUnit(sites[0]) {
			p.Reportf(sites[0].pos, "failpoint %q has no failpoint.Inject site; a registered-but-unreachable failpoint is dead fault coverage", name)
		}
	}
	for _, name := range sortedKeys(reg.injects) {
		if len(reg.regs[name]) > 0 {
			continue
		}
		for _, s := range reg.injects[name] {
			if inUnit(s) {
				p.Reportf(s.pos, "failpoint %q is not declared in the registry; add `var _ = failpoint.Register(%q)` (a typo'd site silently never fires)", name, name)
			}
		}
	}

	// Swallowed-fault check: intraprocedural, per function and per closure.
	eachFuncBody(p.Unit, func(fb *funcBody) { p.checkMustUse(injectMustUse, fb) })
}

// injectMustUse is the propagation contract as a must-use configuration:
// each Inject result must reach a real use — not discarded as a statement,
// not assigned to _, and, when bound to a variable, read at some point its
// definition reaches.
var injectMustUse = mustUse{
	produces: func(p *Pass, call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Inject" && isPkgIdent(p.Info, sel.X, failpointPkgPath)
	},
	message: func(_ *Pass, _ *funcBody, _ *ast.CallExpr, d disposal) string {
		return swallowedMessage("failpoint.Inject", "the injected fault never propagates (swallowed fault path)", d)
	},
}
