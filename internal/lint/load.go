package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked compilation unit ready for analysis.
// In-package test files are checked together with the package's ordinary
// files; external (_test package) files form a unit of their own.
type Package struct {
	// Path is the import path the unit was checked under.
	Path string
	Fset *token.FileSet
	// Files holds the parsed sources, in deterministic (sorted filename)
	// order, with comments.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checker diagnostics. The analyzers tolerate
	// partial type information, but the driver surfaces these so a broken
	// tree cannot silently pass with no findings.
	TypeErrors []error
}

// nonTestFiles returns the unit's files other than _test.go files, which
// most analyzers exempt.
func (u *Package) nonTestFiles() []*ast.File {
	var out []*ast.File
	for _, file := range u.Files {
		if !strings.HasSuffix(u.Fset.Position(file.Pos()).Filename, "_test.go") {
			out = append(out, file)
		}
	}
	return out
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir          string
	ImportPath   string
	Export       string
	ForTest      string
	Standard     bool
	DepOnly      bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Error        *struct{ Err string }
}

// goList invokes `go list` in dir and decodes its JSON stream.
func goList(dir string, args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from compiler export data produced by
// `go list -export`, keeping the loader free of non-stdlib dependencies.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// LoadPackages type-checks every package matching the patterns (resolved by
// `go list` relative to dir). Each package yields one unit covering its
// ordinary and in-package test files, plus a second unit for any external
// _test package. Units come back sorted by Path so runs are deterministic.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"-e", "-deps", "-test", "-export", "-json"}, patterns...)
	all, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var targets []listPkg
	for _, p := range all {
		if p.ForTest == "" && p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Standard || p.DepOnly || p.ForTest != "" || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		targets = append(targets, p)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var units []*Package
	for _, t := range targets {
		var names []string
		names = append(names, t.GoFiles...)
		names = append(names, t.TestGoFiles...)
		if len(names) > 0 {
			u, err := checkUnit(fset, imp, t.ImportPath, t.Dir, names)
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}
		if len(t.XTestGoFiles) > 0 {
			u, err := checkUnit(fset, imp, t.ImportPath+"_test", t.Dir, t.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			units = append(units, u)
		}
	}
	return units, nil
}

// LoadFixture type-checks a standalone directory of Go files (an analyzer
// test fixture). Imports are resolved by asking `go list` for export data of
// exactly the packages the fixture files import, so fixtures may import the
// stdlib freely without being part of the module build. pkgPath becomes the
// unit's import path, letting tests exercise path-scoped policies.
func LoadFixture(dir, pkgPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	sort.Strings(names)

	// Pre-parse just to harvest the import set.
	harvest := token.NewFileSet()
	importSet := make(map[string]bool)
	for _, name := range names {
		f, err := parser.ParseFile(harvest, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, im := range f.Imports {
			importSet[strings.Trim(im.Path.Value, `"`)] = true
		}
	}
	exports := make(map[string]string)
	if len(importSet) > 0 {
		paths := make([]string, 0, len(importSet))
		for p := range importSet {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		args := append([]string{"-e", "-deps", "-export", "-json"}, paths...)
		all, err := goList(dir, args...)
		if err != nil {
			return nil, err
		}
		for _, p := range all {
			if p.ForTest == "" && p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	fset := token.NewFileSet()
	return checkUnit(fset, exportImporter(fset, exports), pkgPath, dir, names)
}

// checkUnit parses and type-checks one set of files as a single package.
func checkUnit(fset *token.FileSet, imp types.Importer, path, dir string, names []string) (*Package, error) {
	names = append([]string(nil), names...)
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	// The error callback makes Check continue past (and return) soft
	// failures; analyzers work from whatever type information survived.
	tpkg, _ := conf.Check(path, fset, files, info)
	return &Package{
		Path:       path,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		TypeErrors: typeErrs,
	}, nil
}
