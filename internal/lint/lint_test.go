package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the quoted regexps of a `// want "..." "..."` comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	re  *regexp.Regexp
	met bool
}

// loadExpectations harvests `// want` comments from the fixture sources,
// keyed by file:line.
func loadExpectations(t *testing.T, pkg *Package) map[string][]*expectation {
	t.Helper()
	wants := make(map[string][]*expectation)
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantRe.FindAllStringSubmatch(c.Text[idx:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", k, m[1], err)
					}
					wants[k] = append(wants[k], &expectation{re: re})
				}
			}
		}
	}
	return wants
}

// runGolden loads a fixture directory, runs one analyzer over it, and
// compares the surviving findings against the fixture's want comments.
func runGolden(t *testing.T, a *Analyzer, fixture, pkgPath string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	pkg, err := LoadFixture(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s has type errors: %v", fixture, terr)
	}
	wants := loadExpectations(t, pkg)
	for _, f := range Run(pkg, []*Analyzer{a}) {
		k := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		matched := false
		for _, w := range wants[k] {
			if !w.met && w.re.MatchString(f.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.met {
				t.Errorf("%s: expected finding matching %q, got none", k, w.re)
			}
		}
	}
}

func TestSeededRandGolden(t *testing.T) { runGolden(t, SeededRand, "seededrand", "fixture/seededrand") }
func TestNoClockGolden(t *testing.T)    { runGolden(t, NoClock, "noclock", "fixture/noclock") }
func TestMapOrderGolden(t *testing.T)   { runGolden(t, MapOrder, "maporder", "fixture/maporder") }
func TestFloatEqGolden(t *testing.T)    { runGolden(t, FloatEq, "floateq", "fixture/floateq") }

func TestGuardedByGolden(t *testing.T) { runGolden(t, GuardedBy, "guardedby", "fixture/guardedby") }
func TestErrFlowGolden(t *testing.T)   { runGolden(t, ErrFlow, "errflow", "fixture/errflow") }

func TestGoLeakGolden(t *testing.T)     { runGolden(t, GoLeak, "goleak", "fixture/goleak") }
func TestHandleLifeGolden(t *testing.T) { runGolden(t, HandleLife, "handlelife", "fixture/handlelife") }

func TestNoAllocGolden(t *testing.T) { runGolden(t, NoAlloc, "noalloc", "fixture/noalloc") }
func TestDurableGolden(t *testing.T) { runGolden(t, Durable, "durable", "fixture/durable") }
func TestBoundedGolden(t *testing.T) { runGolden(t, Bounded, "bounded", "fixture/bounded") }

// TestFsxProtocolGolden drives the durable analyzer's in-fsx mode: the
// fixture's package clause is named fsx, so the sync-before-rename
// must-analysis runs instead of the annotation flow checks.
func TestFsxProtocolGolden(t *testing.T) { runGolden(t, Durable, "fsxproto", "fixture/fsxproto") }

// TestUnknownAnnotationKeyGolden checks the qb5000: key hygiene scan: a
// typo'd annotation key is a finding, regardless of which analyzer runs.
func TestUnknownAnnotationKeyGolden(t *testing.T) {
	runGolden(t, NoAlloc, "qb5000key", "fixture/qb5000key")
}

// TestSuppression checks that valid //lint:ignore directives (leading,
// trailing, and multi-analyzer) swallow findings, while directives naming a
// different analyzer do not.
func TestSuppression(t *testing.T) { runGolden(t, SeededRand, "suppress", "fixture/suppress") }

// TestNoClockStrict loads the fixture under a model-package import path,
// where noclock suppressions must be rejected.
func TestNoClockStrict(t *testing.T) {
	runGolden(t, NoClock, "noclockstrict", "qb5000/internal/core")
}

// TestDirectiveHygiene exercises the malformed-directive findings directly:
// a missing reason, a missing analyzer name, and an unknown analyzer (a
// retired one included) must each be reported under the "lint"
// pseudo-analyzer.
func TestDirectiveHygiene(t *testing.T) {
	src := `package p

func a() {
	//lint:ignore seededrand
	_ = 1
}

func b() {
	//lint:ignore
	_ = 2
}

func c() {
	//lint:ignore bogusname because I said so
	_ = 3
}

func d() {
	//lint:ignore floateq this one is fine
	_ = 4
}

func e() {
	//lint:ignore lockorder names an analyzer retired in PR 22
	_ = 5
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "hygiene.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sup, bad := directives(fset, []*ast.File{file})
	wantMsgs := []string{
		"must carry a reason",
		"names no analyzer",
		`unknown analyzer "bogusname"`,
		`unknown analyzer "lockorder"`,
	}
	if len(bad) != len(wantMsgs) {
		t.Fatalf("got %d hygiene findings, want %d: %v", len(bad), len(wantMsgs), bad)
	}
	for i, f := range bad {
		if f.Analyzer != "lint" {
			t.Errorf("finding %d reported under %q, want \"lint\"", i, f.Analyzer)
		}
		if !strings.Contains(f.Message, wantMsgs[i]) {
			t.Errorf("finding %d = %q, want it to mention %q", i, f.Message, wantMsgs[i])
		}
	}
	// The one well-formed directive must have registered a suppression that
	// covers its own line and the next.
	ok := Finding{Pos: token.Position{Filename: "hygiene.go", Line: 20}, Analyzer: "floateq"}
	if !sup.suppresses(ok) {
		t.Errorf("well-formed directive did not register a suppression")
	}
	if sup.suppresses(Finding{Pos: token.Position{Filename: "hygiene.go", Line: 20}, Analyzer: "seededrand"}) {
		t.Errorf("suppression leaked to an analyzer the directive does not name")
	}
}

// TestDiagnosticListsDerived pins the "known: …" lists inside hygiene
// findings to their sources — All for analyzers, annotationTable for
// annotation keys — so the text cannot drift from the registries again.
func TestDiagnosticListsDerived(t *testing.T) {
	src := `package p

//lint:ignore bogusname because I said so
var a = 1

// qb5000:noalock typo'd key
var b = 2
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "lists.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	_, bad := directives(fset, []*ast.File{file})
	if len(bad) != 2 {
		t.Fatalf("got %d hygiene findings, want 2: %v", len(bad), bad)
	}
	var analyzers, keys []string
	for _, a := range All {
		analyzers = append(analyzers, a.Name)
	}
	for _, spec := range annotationTable {
		keys = append(keys, spec.key)
	}
	if len(analyzers) != 11 {
		t.Errorf("All registers %d analyzers, want 11: %v", len(analyzers), analyzers)
	}
	for i, want := range []string{
		"(known: " + strings.Join(analyzers, ", ") + ")",
		"(known: " + strings.Join(keys, ", ") + ")",
	} {
		if !strings.HasSuffix(bad[i].Message, want) {
			t.Errorf("finding %d = %q, want it to end with %q", i, bad[i].Message, want)
		}
	}
}

// debtCeiling is the checked-in cap on //lint:ignore references tree-wide
// (qb5000vet -debt's total). Lower it when debt is paid; raising it needs the
// same scrutiny as adding a suppression.
const debtCeiling = 30

// TestSuppressionDebtCeiling loads the tree as BenchmarkVetTree does and
// fails if the suppression inventory exceeds the ceiling, so a cleanup
// cannot silently regrow.
func TestSuppressionDebtCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := LoadPackages("../..", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, use := range DirectiveUses(pkg.Fset, pkg.Files) {
			for _, a := range use.Analyzers {
				seen[fmt.Sprintf("%s:%d:%s", use.Pos.Filename, use.Pos.Line, a)] = true
			}
		}
	}
	if len(seen) > debtCeiling {
		t.Errorf("%d //lint:ignore references exceed the ceiling of %d; run `qb5000vet -debt ./...` and pay the new debt down (or narrow the rule) instead of suppressing", len(seen), debtCeiling)
	}
}
