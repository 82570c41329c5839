// Package lint implements qb5000vet, the project's determinism and
// concurrency analyzer suite (DESIGN.md §7). QB5000's accuracy tables are
// only meaningful if retraining the same trace yields bit-identical models,
// so the analyzers forbid the usual sources of silent nondeterminism —
// wall-clock reads in model code, order-dependent map iteration, and exact
// float comparison — rather than relying on spot tests to catch
// regressions. (Seeding is held by tests instead: every model family is fit
// twice with one seed and must predict the same bits.)
//
// Findings can be suppressed with a directive on the offending line or on
// the line directly above it:
//
//	//lint:ignore analyzer[,analyzer...] reason
//
// The reason is mandatory; a directive without one (or naming an unknown
// analyzer) is itself a finding. noclock findings inside the strict model
// packages (internal/{core,cluster,forecast,nn,timeseries,preprocess})
// cannot be suppressed at all: time there must come from trace timestamps
// or an injected clock.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// A Finding is one rule violation at a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// An Analyzer checks one rule of the determinism contract over a package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All is the full qb5000vet suite.
var All = []*Analyzer{NoClock, MapOrder, FloatEq, ErrFlow, GoLeak, Durable, Bounded}

// A Pass carries one type-checked package through the analyzers.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Prog is the interprocedural context (call graph + summaries) shared by
	// every unit of the run.
	Prog *Program

	// Unit is the package unit under analysis.
	Unit *Package

	analyzer *Analyzer
	findings []Finding
	// parentMaps caches parents' per-file result across the analyzers of a run.
	parentMaps map[*ast.File]map[ast.Node]ast.Node
}

// parents returns each node's parent within file, computed once per run.
func (p *Pass) parents(file *ast.File) map[ast.Node]ast.Node {
	m, ok := p.parentMaps[file]
	if !ok {
		m = parentMap(file)
		p.parentMaps[file] = m
	}
	return m
}

// Reportf records a finding for the running analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos falls inside a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// strictClockPackages are the model-code packages where wall-clock reads are
// forbidden outright: noclock findings there ignore suppression directives.
var strictClockPackages = map[string]bool{
	"qb5000/internal/core":       true,
	"qb5000/internal/cluster":    true,
	"qb5000/internal/forecast":   true,
	"qb5000/internal/nn":         true,
	"qb5000/internal/timeseries": true,
	"qb5000/internal/preprocess": true,
}

// strictClockUnit reports whether unitPath is a strict model package (the
// in-package unit or its external _test unit).
func strictClockUnit(unitPath string) bool {
	return strictClockPackages[strings.TrimSuffix(unitPath, "_test")]
}

// Run executes the analyzers over one package unit in isolation: a
// single-unit Program is built on the fly, so the summary-based analyzers
// see the unit's own call graph but nothing across packages. The driver
// uses Program.Run instead to share one graph across the whole set.
func Run(pkg *Package, analyzers []*Analyzer) []Finding {
	return NewProgram([]*Package{pkg}).Run(pkg, analyzers)
}

// Run executes the analyzers over one unit of the program and returns the
// findings that survive //lint:ignore suppression, plus any
// directive-hygiene findings, sorted by position.
func (prog *Program) Run(pkg *Package, analyzers []*Analyzer) []Finding {
	pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info, Prog: prog, Unit: pkg,
		parentMaps: make(map[*ast.File]map[ast.Node]ast.Node)}
	for _, a := range analyzers {
		pass.analyzer = a
		a.Run(pass)
	}
	sup, out := directives(pkg.Fset, pkg.Files)
	strict := strictClockUnit(pkg.Path)
	for _, f := range pass.findings {
		if sup.suppresses(f) {
			if strict && f.Analyzer == NoClock.Name {
				f.Message += " (suppression ignored: wall-clock reads are forbidden in model packages)"
			} else {
				continue
			}
		}
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// ignoreRe matches "//lint:ignore <names> <reason>"; the reason group is
// validated separately so an empty one can be reported.
var ignoreRe = regexp.MustCompile(`^//lint:ignore(?:\s+(\S+))?\s*(.*)$`)

// suppressions records, per filename, the lines carrying an ignore directive
// for each analyzer. A directive suppresses findings on its own line and on
// the line directly below it.
type suppressions map[string]map[int]bool // "analyzer\x00filename" is too fiddly; see key()

func key(analyzer, filename string) string { return analyzer + "\x00" + filename }

func (s suppressions) add(analyzer, filename string, line int) {
	k := key(analyzer, filename)
	if s[k] == nil {
		s[k] = make(map[int]bool)
	}
	s[k][line] = true
}

func (s suppressions) suppresses(f Finding) bool {
	lines := s[key(f.Analyzer, f.Pos.Filename)]
	return lines[f.Pos.Line] || lines[f.Pos.Line-1]
}

// knownAnalyzer validates directive names against the full suite, so a
// fixture run with a single analyzer still accepts directives for the rest.
func knownAnalyzer(name string) bool {
	for _, a := range All {
		if a.Name == name {
			return true
		}
	}
	return false
}

// analyzerNames renders the suite's names, in All's order, for diagnostics.
func analyzerNames() string {
	names := make([]string, len(All))
	for i, a := range All {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// directives scans comments for //lint:ignore markers. It returns the
// suppression table plus hygiene findings (reported under the pseudo-analyzer
// "lint") for directives that omit the mandatory reason or name an unknown
// analyzer, and for qb5000: annotations whose key is not in the grammar.
func directives(fset *token.FileSet, files []*ast.File) (suppressions, []Finding) {
	sup := make(suppressions)
	var bad []Finding
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, Finding{Pos: fset.Position(pos), Analyzer: "lint", Message: fmt.Sprintf(format, args...)})
	}
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if km := annotationKeyRe.FindStringSubmatch(c.Text); km != nil && annotationSpecFor(km[1]) == nil {
					report(c.Pos(), "unknown qb5000: annotation key %q (known: %s)", km[1], annotationKeys())
					continue
				}
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				names, reason := m[1], strings.TrimSpace(m[2])
				if names == "" {
					report(c.Pos(), "lint:ignore directive names no analyzer; use //lint:ignore analyzer reason")
					continue
				}
				if reason == "" {
					report(c.Pos(), "lint:ignore directive must carry a reason: //lint:ignore %s <why this is safe>", names)
					continue
				}
				pos := fset.Position(c.Pos())
				for _, name := range strings.Split(names, ",") {
					if !knownAnalyzer(name) {
						report(c.Pos(), "lint:ignore names unknown analyzer %q (known: %s)", name, analyzerNames())
						continue
					}
					sup.add(name, pos.Filename, pos.Line)
				}
			}
		}
	}
	return sup, bad
}
