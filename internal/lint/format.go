package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// This file is the //lint:ignore inventory behind `qb5000vet -debt`.

// A DirectiveUse is one //lint:ignore occurrence, attributed to every
// analyzer it names.
type DirectiveUse struct {
	Pos       token.Position
	Analyzers []string
	Reason    string
}

// DirectiveUses inventories the well-formed //lint:ignore directives in the
// unit's files (malformed ones are already findings). Results are sorted by
// position.
func DirectiveUses(fset *token.FileSet, files []*ast.File) []DirectiveUse {
	var out []DirectiveUse
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				names, reason := m[1], strings.TrimSpace(m[2])
				if names == "" || reason == "" {
					continue
				}
				var analyzers []string
				for _, name := range strings.Split(names, ",") {
					if knownAnalyzer(name) {
						analyzers = append(analyzers, name)
					}
				}
				if len(analyzers) == 0 {
					continue
				}
				out = append(out, DirectiveUse{Pos: fset.Position(c.Pos()), Analyzers: analyzers, Reason: reason})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}
