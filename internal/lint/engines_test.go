package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// The engine tests drive errflow's disposal classification and durable's
// fsync-before-rename flow over a minimal in-memory body, so an engine
// regression is localised without the golden fixtures. Imports resolve
// against the stub packages below: just enough of os and sync for the
// analyzers' predicates (which match on package path and type name).
var stubSources = map[string]string{
	"os": `package os
type File struct{}
func (*File) Close() error { return nil }
func (*File) Sync() error  { return nil }
func Rename(a, b string) error { return nil }
`,
	"sync": `package sync
type Mutex struct{}
func (*Mutex) Lock()   {}
func (*Mutex) Unlock() {}
`,
}

type stubImporter struct {
	fset *token.FileSet
	done map[string]*types.Package
}

func (im *stubImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.done[path]; ok {
		return pkg, nil
	}
	src, ok := stubSources[path]
	if !ok {
		return nil, fmt.Errorf("no stub for %q", path)
	}
	file, err := parser.ParseFile(im.fset, path+"/stub.go", src, 0)
	if err != nil {
		return nil, err
	}
	pkg, err := (&types.Config{}).Check(path, im.fset, []*ast.File{file}, nil)
	im.done[path] = pkg
	return pkg, err
}

// checkStubbed type-checks one in-memory file against the stub packages.
func checkStubbed(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "body.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: &stubImporter{fset: fset, done: map[string]*types.Package{}}}
	tpkg, err := conf.Check("fixture/engine", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck: %v\n%s", err, src)
	}
	return &Package{Path: "fixture/engine", Fset: fset, Files: []*ast.File{file}, Types: tpkg, Info: info}
}

// An engineCase is one body under one configuration: want is a substring of
// the single expected finding, or "" for a quiet body.
type engineCase struct {
	name, body, want string
}

// runEngineCases wraps each body in preamble + `func f(<params>) error {…}`
// and checks the analyzer's findings against want.
func runEngineCases(t *testing.T, a *Analyzer, preamble, params string, cases []engineCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(a.Name+"/"+tc.name, func(t *testing.T) {
			pkg := checkStubbed(t, preamble+"\nfunc f("+params+") error {\n"+tc.body+"\n}\n")
			findings := Run(pkg, []*Analyzer{a})
			switch {
			case tc.want == "" && len(findings) != 0:
				t.Errorf("want no findings, got %v", findings)
			case tc.want != "" && (len(findings) != 1 || !strings.Contains(findings[0].Message, tc.want)):
				t.Errorf("want one finding containing %q, got %v", tc.want, findings)
			}
		})
	}
}

func TestMustUseEngine(t *testing.T) {
	runEngineCases(t, ErrFlow,
		`package p
func work() error { return nil }
func pair() (int, error) { return 0, nil }`, "",
		[]engineCase{
			{"discard", `work(); return nil`, "call to work discards its error"},
			{"defer", `defer work(); return nil`, "deferred call to work discards its error"},
			{"go", `go work(); return nil`, "goroutine call to work discards its error"},
			{"blank", `_ = work(); return nil`, "assignment blanks the error from work"},
			{"all-blank", `_, _ = pair(); return nil`, "assignment blanks the error from pair"},
			{"partial-blank", `v, _ := pair(); _ = v; return nil`, ""},
			{"dead-store tolerated", `err := work(); err = nil; return err`, ""},
			{"used", `err := work(); return err`, ""},
			{"returned", `return work()`, ""},
		})
}

// TestObligationEngine drives durable's protocol mode, which runs in any
// package named fsx: join = intersect, and the finding is the demand at the
// rename.
func TestObligationEngine(t *testing.T) {
	runEngineCases(t, Durable,
		`package fsx
import "os"`, "tmp *os.File, fast bool",
		[]engineCase{
			{"never established", `tmp.Close(); return os.Rename("a", "b")`, "os.Rename without an fsync"},
			{"established on one path", `if !fast { tmp.Sync() }; return os.Rename("a", "b")`, "os.Rename without an fsync"},
			{"established on every path", `if err := tmp.Sync(); err != nil { return err }; return os.Rename("a", "b")`, ""},
		})
}
