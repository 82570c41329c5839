package sqlparse

import "testing"

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasic(t *testing.T) {
	toks, err := Lex("SELECT a, b FROM t WHERE x = 1")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{TokKeyword, TokIdent, TokComma, TokIdent, TokKeyword,
		TokIdent, TokKeyword, TokIdent, TokOperator, TokNumber, TokEOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: kind %v, want %v (%v)", i, got[i], want[i], toks[i])
		}
	}
}

func TestLexKeywordsUppercased(t *testing.T) {
	toks, err := Lex("select FrOm")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "SELECT" || toks[1].Text != "FROM" {
		t.Fatalf("keywords not normalized: %v", toks)
	}
}

func TestLexStrings(t *testing.T) {
	cases := []struct{ in, want string }{
		{"'hello'", "hello"},
		{"'it''s'", "it's"},
		{`'a\'b'`, "a'b"},
		{"''", ""},
	}
	for _, c := range cases {
		toks, err := Lex(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if toks[0].Kind != TokString || toks[0].Text != c.want {
			t.Fatalf("%q → %v, want %q", c.in, toks[0], c.want)
		}
	}
	if _, err := Lex("'unterminated"); err == nil {
		t.Fatal("expected unterminated string error")
	}
}

func TestLexNumbers(t *testing.T) {
	for _, in := range []string{"42", "3.14", ".5", "1e9", "2.5E-3"} {
		toks, err := Lex(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if toks[0].Kind != TokNumber || toks[0].Text != in {
			t.Fatalf("%q → %v", in, toks[0])
		}
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := Lex("<= >= <> != < > = + - * / %")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"<=", ">=", "<>", "!=", "<", ">", "=", "+", "-", "*", "/", "%"}
	for i, w := range want {
		if toks[i].Kind != TokOperator || toks[i].Text != w {
			t.Fatalf("op %d: %v, want %q", i, toks[i], w)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Lex("SELECT 1 -- trailing comment\n/* block */ FROM t")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind != TokEOF {
			texts = append(texts, tok.Text)
		}
	}
	if len(texts) != 4 { // SELECT 1 FROM t
		t.Fatalf("comments not skipped: %v", texts)
	}
	if _, err := Lex("/* unterminated"); err == nil {
		t.Fatal("expected unterminated comment error")
	}
}

func TestLexPlaceholders(t *testing.T) {
	toks, err := Lex("? $1 $23")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"?", "$1", "$23"} {
		if toks[i].Kind != TokPlaceholder || toks[i].Text != want {
			t.Fatalf("placeholder %d: %v", i, toks[i])
		}
	}
}

func TestLexQuotedIdentifiers(t *testing.T) {
	toks, err := Lex("\"My Table\" `col`")
	if err != nil {
		t.Fatal(err)
	}
	// A name that would not lex back bare keeps its quotes; see lexInto.
	if toks[0].Kind != TokIdent || toks[0].Text != `"My Table"` {
		t.Fatalf("quoted ident: %v", toks[0])
	}
	if toks[1].Kind != TokIdent || toks[1].Text != "col" {
		t.Fatalf("backquoted ident: %v", toks[1])
	}
}

func TestLexErrors(t *testing.T) {
	for _, in := range []string{"@", "!x", "#"} {
		if _, err := Lex(in); err == nil {
			t.Fatalf("%q: expected lex error", in)
		}
	}
}
