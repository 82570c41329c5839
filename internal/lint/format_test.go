package lint

import (
	"go/ast"
	"testing"
)

func TestDirectiveUses(t *testing.T) {
	const src = `package p

//lint:ignore seededrand deterministic seed derived from trace hash
var a = 1

//lint:ignore floateq,maporder audited: compares cluster IDs not floats
var b = 2

//lint:ignore unknownname reason for an unknown analyzer
var c = 3
`
	fset, file, _ := checkSrc(t, src)
	uses := DirectiveUses(fset, []*ast.File{file})
	if len(uses) != 2 {
		t.Fatalf("got %d uses, want 2 (unknown analyzer excluded): %v", len(uses), uses)
	}
	if len(uses[0].Analyzers) != 1 || uses[0].Analyzers[0] != "seededrand" {
		t.Errorf("first use analyzers = %v", uses[0].Analyzers)
	}
	if uses[0].Reason != "deterministic seed derived from trace hash" {
		t.Errorf("first use reason = %q", uses[0].Reason)
	}
	if len(uses[1].Analyzers) != 2 {
		t.Errorf("second use analyzers = %v, want floateq+maporder", uses[1].Analyzers)
	}
}
