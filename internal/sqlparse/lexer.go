// Package sqlparse implements a lexer, recursive-descent parser, and AST for
// the SQL dialect that the workload traces use (SELECT / INSERT / UPDATE /
// DELETE with joins, grouping, and the usual predicate forms).
//
// The paper relies on the target DBMS's parser to identify tokens when
// templatizing queries (§4); since this reproduction is self-contained, the
// parser is built here as a substrate. The Pre-Processor walks the AST to
// strip constants, normalize formatting, and extract the semantic features
// (tables, predicates, projections) used for template equivalence.
package sqlparse

import (
	"fmt"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOperator // = < > <= >= != <> + - * / %
	TokComma
	TokLParen
	TokRParen
	TokDot
	TokSemicolon
	TokPlaceholder // ? or $1
)

// Token is a lexical token with its original text and byte offset.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; idents keep original case
	Pos  int
}

// String renders the token for diagnostics.
func (t Token) String() string {
	return fmt.Sprintf("%s@%d", t.Text, t.Pos)
}

// keywordText maps the upper-cased spelling of every keyword to its one
// interned canonical string, so keyword tokens never allocate: the lexer
// upper-cases candidate words into a stack buffer and the map lookup hands
// back the shared constant (matched case-insensitively).
var keywordText = map[string]string{
	"SELECT": "SELECT", "FROM": "FROM", "WHERE": "WHERE", "INSERT": "INSERT",
	"INTO": "INTO", "VALUES": "VALUES", "UPDATE": "UPDATE", "SET": "SET",
	"DELETE": "DELETE", "AND": "AND", "OR": "OR", "NOT": "NOT", "NULL": "NULL",
	"IN": "IN", "BETWEEN": "BETWEEN", "LIKE": "LIKE", "IS": "IS",
	"JOIN": "JOIN", "INNER": "INNER", "LEFT": "LEFT", "RIGHT": "RIGHT",
	"OUTER": "OUTER", "ON": "ON", "AS": "AS", "ORDER": "ORDER", "BY": "BY",
	"GROUP": "GROUP", "HAVING": "HAVING", "LIMIT": "LIMIT", "OFFSET": "OFFSET",
	"ASC": "ASC", "DESC": "DESC", "DISTINCT": "DISTINCT", "TRUE": "TRUE",
	"FALSE": "FALSE", "EXISTS": "EXISTS", "UNION": "UNION", "ALL": "ALL",
	"CASE": "CASE", "WHEN": "WHEN", "THEN": "THEN", "ELSE": "ELSE",
	"END": "END",
}

// maxKeywordLen bounds the stack scratch keywordFor upper-cases into; words
// longer than every keyword skip the lookup entirely.
var maxKeywordLen = func() int {
	n := 0
	for k := range keywordText {
		if len(k) > n {
			n = len(k)
		}
	}
	return n
}()

// keywordFor reports whether word is a keyword (case-insensitively) and
// returns its interned canonical upper-case text. It does not allocate: the
// upper-cased copy lives in a stack buffer, and Go map lookups with a
// string-converted byte slice key do not copy.
//
// qb5000:noalloc
func keywordFor(word string) (string, bool) {
	if len(word) > maxKeywordLen || len(word) > 16 {
		return "", false
	}
	var buf [16]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywordText[string(buf[:len(word)])]
	return kw, ok
}

// SyntaxError describes a lexing or parsing failure with its location.
type SyntaxError struct {
	Pos int
	Msg string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sqlparse: %s at offset %d", e.Msg, e.Pos)
}

// Lex tokenizes a SQL string into a freshly allocated token slice. The hot
// observe path goes through Parse, which lexes into a pooled scratch buffer
// instead; Lex stays for callers that retain the tokens.
func Lex(input string) ([]Token, error) {
	return lexInto(nil, input)
}

// lexInto tokenizes input, appending to dst (typically a pooled buffer with
// its length reset to zero) and returning the extended slice. It is a
// single-index byte walk over the raw string: every token's Text is either a
// substring of input, an interned keyword, or — only for string literals
// that actually contain escapes — a freshly unescaped string, so steady
// state lexing allocates nothing beyond amortized slice growth.
//
// qb5000:noalloc
func lexInto(dst []Token, input string) ([]Token, error) {
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			// Line comment.
			for i < n && input[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && input[i+1] == '*':
			j := i + 2
			for j+1 < n && !(input[j] == '*' && input[j+1] == '/') {
				j++
			}
			if j+1 >= n {
				return dst, &SyntaxError{Pos: i, Msg: "unterminated block comment"}
			}
			i = j + 2
		case c == '\'':
			//lint:ignore noalloc escape-free literals return substrings; only escaped literals take the allocating slow path
			text, next, serr := lexString(input, i)
			if serr != nil {
				return dst, serr
			}
			dst = append(dst, Token{Kind: TokString, Text: text, Pos: i})
			i = next
		case c == '"' || c == '`':
			// Quoted identifier.
			quote := c
			start := i
			i++
			j := i
			for j < n && input[j] != quote {
				j++
			}
			if j >= n {
				return dst, &SyntaxError{Pos: start, Msg: "unterminated quoted identifier"}
			}
			// An ordinary word folds with its bare spelling. Anything that
			// would not lex back bare as one identifier — a digit first, a
			// space, a keyword, nothing at all — keeps its quotes as part of
			// the name, so that rendering it re-parses to the same name.
			text := input[i:j]
			if !isBareIdent(text) {
				text = input[start : j+1]
			}
			dst = append(dst, Token{Kind: TokIdent, Text: text, Pos: start})
			i = j + 1
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(input[i+1])):
			start := i
			for i < n && (isDigit(input[i]) || input[i] == '.' || input[i] == 'e' || input[i] == 'E' ||
				((input[i] == '+' || input[i] == '-') && i > start && (input[i-1] == 'e' || input[i-1] == 'E'))) {
				i++
			}
			dst = append(dst, Token{Kind: TokNumber, Text: input[start:i], Pos: start})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			if kw, ok := keywordFor(word); ok {
				dst = append(dst, Token{Kind: TokKeyword, Text: kw, Pos: start})
			} else {
				dst = append(dst, Token{Kind: TokIdent, Text: word, Pos: start})
			}
		case c == '?':
			dst = append(dst, Token{Kind: TokPlaceholder, Text: "?", Pos: i})
			i++
		case c == '$' && i+1 < n && isDigit(input[i+1]):
			start := i
			i++
			for i < n && isDigit(input[i]) {
				i++
			}
			dst = append(dst, Token{Kind: TokPlaceholder, Text: input[start:i], Pos: start})
		case c == ',':
			dst = append(dst, Token{Kind: TokComma, Text: ",", Pos: i})
			i++
		case c == '(':
			dst = append(dst, Token{Kind: TokLParen, Text: "(", Pos: i})
			i++
		case c == ')':
			dst = append(dst, Token{Kind: TokRParen, Text: ")", Pos: i})
			i++
		case c == '.':
			dst = append(dst, Token{Kind: TokDot, Text: ".", Pos: i})
			i++
		case c == ';':
			dst = append(dst, Token{Kind: TokSemicolon, Text: ";", Pos: i})
			i++
		case c == '<':
			if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
				dst = append(dst, Token{Kind: TokOperator, Text: input[i : i+2], Pos: i})
				i += 2
			} else {
				dst = append(dst, Token{Kind: TokOperator, Text: "<", Pos: i})
				i++
			}
		case c == '>':
			if i+1 < n && input[i+1] == '=' {
				dst = append(dst, Token{Kind: TokOperator, Text: ">=", Pos: i})
				i += 2
			} else {
				dst = append(dst, Token{Kind: TokOperator, Text: ">", Pos: i})
				i++
			}
		case c == '!':
			if i+1 < n && input[i+1] == '=' {
				dst = append(dst, Token{Kind: TokOperator, Text: "!=", Pos: i})
				i += 2
			} else {
				return dst, &SyntaxError{Pos: i, Msg: "unexpected '!'"}
			}
		case c == '=' || c == '+' || c == '-' || c == '*' || c == '/' || c == '%':
			dst = append(dst, Token{Kind: TokOperator, Text: opText(c), Pos: i})
			i++
		default:
			return dst, &SyntaxError{Pos: i, Msg: fmt.Sprintf("unexpected character %q", rune(c))}
		}
	}
	dst = append(dst, Token{Kind: TokEOF, Text: "", Pos: n})
	return dst, nil
}

// opText returns the interned one-byte operator text so single-character
// operator tokens never allocate a fresh string.
//
// qb5000:noalloc
func opText(c byte) string {
	switch c {
	case '=':
		return "="
	case '+':
		return "+"
	case '-':
		return "-"
	case '*':
		return "*"
	case '/':
		return "/"
	case '%':
		return "%"
	}
	//lint:ignore noalloc unreachable default: callers pass only the six interned operator bytes above
	return string(c)
}

// lexString scans the single-quoted literal starting at input[start] ('),
// returning its unescaped text and the index past the closing quote.
// Literals without escapes — the overwhelmingly common case — return a
// substring of input and allocate nothing; only doubled-quote and
// backslash escapes fall back to building the unescaped copy.
func lexString(input string, start int) (string, int, *SyntaxError) {
	n := len(input)
	i := start + 1
	for i < n {
		c := input[i]
		if c == '\'' {
			if i+1 < n && input[i+1] == '\'' {
				// Escaped quote: take the slow path from the top.
				return lexStringSlow(input, start)
			}
			return input[start+1 : i], i + 1, nil
		}
		if c == '\\' && i+1 < n {
			return lexStringSlow(input, start)
		}
		i++
	}
	return "", n, &SyntaxError{Pos: start, Msg: "unterminated string literal"}
}

// lexStringSlow unescapes a string literal that contains doubled-quote or
// backslash escapes into a fresh buffer.
func lexStringSlow(input string, start int) (string, int, *SyntaxError) {
	n := len(input)
	i := start + 1
	buf := make([]byte, 0, 16)
	for i < n {
		if input[i] == '\'' {
			if i+1 < n && input[i+1] == '\'' { // escaped quote
				buf = append(buf, '\'')
				i += 2
				continue
			}
			return string(buf), i + 1, nil
		}
		if input[i] == '\\' && i+1 < n { // backslash escape
			buf = append(buf, input[i+1])
			i += 2
			continue
		}
		buf = append(buf, input[i])
		i++
	}
	return "", n, &SyntaxError{Pos: start, Msg: "unterminated string literal"}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Identifiers are ASCII-only. The lexer walks bytes, so widening a single
// byte to a rune would misclassify stray non-UTF-8 bytes ≥ 0x80 as Latin-1
// letters and accept input whose canonical rendering cannot reparse.
func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return c == '_' || c == '$' || isIdentStart(c) || isDigit(c)
}

// isBareIdent reports whether s, unquoted, lexes as exactly one identifier.
//
// qb5000:noalloc
func isBareIdent(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentPart(s[i]) {
			return false
		}
	}
	_, keyword := keywordFor(s)
	return !keyword
}
