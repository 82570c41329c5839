package lint

import (
	"go/ast"
	"regexp"
	"strings"
)

// This file is the qb5000: annotation grammar. Every source annotation the
// analyzers read is one row of annotationTable: its key, the grammar of the
// text after the key, and the comment positions it is read from. The
// parser, the unknown-key hygiene check, the per-function annotation index
// on the call graph (FuncNode.ann) and the "known: …" list inside
// diagnostics are all derived from the table, so a new contract is one row
// here plus the analyzer that consumes it.

// An annotationSite names a comment position annotations are read from.
type annotationSite uint8

const (
	onFunc annotationSite = 1 << iota // a function declaration's doc comment
	onDecl                            // the line of, or directly above, a var, := or field declaration
)

// An annotationSpec is one row of the grammar.
type annotationSpec struct {
	key string
	// args matches the whole text after the key; its submatches are the
	// annotation's arguments.
	args  *regexp.Regexp
	where annotationSite
}

func grammar(args string) *regexp.Regexp { return regexp.MustCompile(`^` + args + `$`) }

// annotationTable is the full grammar, sorted by key. A typo'd key
// (qb5000:noalock) would otherwise be silently ignored, quietly voiding the
// contract it meant to declare, so keys outside the table are findings.
var annotationTable = []annotationSpec{
	{"bounded", grammar(`(?:\s.*)?`), onFunc},        // free-text audit reason
	{"durable", grammar(`\s*(.*)`), onFunc | onDecl}, // parameter names on a func, bare on a declaration
	{"serving", grammar(`\s*`), onFunc},
}

// annotationKeyRe splits a comment into the annotation key and the text
// after it. It is anchored so the indented example blocks in doc comments
// (`//\t// qb5000:…`) do not match.
var annotationKeyRe = regexp.MustCompile(`^//\s*qb5000:([A-Za-z0-9_-]+)(.*)$`)

// annotationSpecFor returns the table row for key, or nil.
func annotationSpecFor(key string) *annotationSpec {
	for i := range annotationTable {
		if annotationTable[i].key == key {
			return &annotationTable[i]
		}
	}
	return nil
}

// annotationKeys renders the table's keys for diagnostics.
func annotationKeys() string {
	keys := make([]string, len(annotationTable))
	for i, spec := range annotationTable {
		keys[i] = spec.key
	}
	return strings.Join(keys, ", ")
}

// scanAnnotations calls f for every annotation among comments whose key the
// table reads at site. args holds the argument submatches, or is nil when
// the text after the key does not fit the key's grammar (a malformed
// annotation, which consumers skip).
func scanAnnotations(site annotationSite, comments []*ast.Comment, f func(c *ast.Comment, key string, args []string)) {
	for _, c := range comments {
		m := annotationKeyRe.FindStringSubmatch(c.Text)
		if m == nil {
			continue
		}
		spec := annotationSpecFor(m[1])
		if spec == nil || spec.where&site == 0 {
			continue
		}
		var args []string
		if sub := spec.args.FindStringSubmatch(m[2]); sub != nil {
			args = append([]string{}, sub[1:]...) // non-nil even for argument-less keys
		}
		f(c, spec.key, args)
	}
}

// annotationsIn collects the well-formed annotations the table reads at
// site from the comment groups, keyed by annotation key (the first
// occurrence of a key wins). It returns nil when there are none.
func annotationsIn(site annotationSite, groups ...*ast.CommentGroup) map[string][]string {
	var out map[string][]string
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		scanAnnotations(site, cg.List, func(_ *ast.Comment, key string, args []string) {
			if args == nil {
				return
			}
			if out == nil {
				out = make(map[string][]string)
			}
			if _, dup := out[key]; !dup {
				out[key] = args
			}
		})
	}
	return out
}
