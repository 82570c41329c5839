// Command qb5000vet runs the project's determinism/concurrency analyzer
// suite (DESIGN.md §7) over the module:
//
//	qb5000vet ./...
//
// It prints one line per finding and exits non-zero if any survive
// suppression, so CI can gate on it. Findings are suppressed in source with
//
//	//lint:ignore analyzer[,analyzer...] reason
//
// on the offending line or the line directly above; the reason is
// mandatory. Suppressions never apply to noclock findings inside the strict
// model packages.
//
// Other modes:
//
//	-debt   report //lint:ignore suppressions per analyzer
//	-list   list the analyzers and exit
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"qb5000/internal/lint"
)

func main() {
	var (
		list = flag.Bool("list", false, "list the analyzers and exit")
		debt = flag.Bool("debt", false, "report //lint:ignore suppression debt per analyzer and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: qb5000vet [flags] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the QB5000 determinism/concurrency analyzers (default ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.LoadPackages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qb5000vet:", err)
		os.Exit(2)
	}

	if *debt {
		reportDebt(pkgs)
		return
	}

	// One Program across the whole set: the call graph and summaries see
	// every loaded unit, so cross-package spawns and handle transfers
	// resolve instead of degrading to the local view.
	prog := lint.NewProgram(pkgs)

	typeErrors := 0
	// Non-test and in-package-test units share files, so the same finding can
	// surface twice; dedupe on identity so the count stays exact.
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		// A package that no longer type-checks would silently produce no
		// findings; fail loudly instead.
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "qb5000vet: %s: type error: %v\n", pkg.Path, terr)
			typeErrors++
		}
		for _, f := range prog.Run(pkg, lint.All) {
			id := fmt.Sprintf("%s:%d:%d:%s:%s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
			if seen[id] {
				continue
			}
			seen[id] = true
			fmt.Println(f)
		}
	}
	if total := len(seen) + typeErrors; total > 0 {
		fmt.Fprintf(os.Stderr, "qb5000vet: %d finding(s)\n", total)
		os.Exit(1)
	}
}

// reportDebt prints the //lint:ignore inventory: a per-analyzer count
// followed by each suppression's location and reason, so CI logs show how
// much audited debt the tree carries.
func reportDebt(pkgs []*lint.Package) {
	type entry struct {
		pos    string
		reason string
	}
	perAnalyzer := make(map[string][]entry)
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, use := range lint.DirectiveUses(pkg.Fset, pkg.Files) {
			for _, a := range use.Analyzers {
				id := fmt.Sprintf("%s:%d:%s", use.Pos.Filename, use.Pos.Line, a)
				if seen[id] {
					continue
				}
				seen[id] = true
				perAnalyzer[a] = append(perAnalyzer[a], entry{
					pos:    fmt.Sprintf("%s:%d", use.Pos.Filename, use.Pos.Line),
					reason: use.Reason,
				})
			}
		}
	}
	names := make([]string, 0, len(perAnalyzer))
	total := 0
	for name, uses := range perAnalyzer {
		names = append(names, name)
		total += len(uses)
	}
	sort.Strings(names)
	fmt.Printf("suppression debt: %d directive reference(s) across %d analyzer(s)\n", total, len(names))
	for _, name := range names {
		uses := perAnalyzer[name]
		fmt.Printf("%s: %d\n", name, len(uses))
		for _, u := range uses {
			fmt.Printf("  %s  %s\n", u.pos, u.reason)
		}
	}
}
