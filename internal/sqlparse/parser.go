package sqlparse

import (
	"fmt"
	"strings"
	"sync"
)

// parseScratch recycles the token buffer (and the parser frame pointing into
// it) across Parse calls. Tokens reference substrings of the immutable input
// or interned keyword strings, and the AST copies nothing but those strings,
// so nothing retains the buffer past the Parse call that filled it.
type parseScratch struct {
	toks []Token
	p    parser
}

var scratchPool = sync.Pool{
	New: func() any { return &parseScratch{toks: make([]Token, 0, 64)} },
}

// Parse parses a single SQL statement. The lexer runs into a pooled token
// buffer, so steady-state parsing of typical statements allocates only the
// AST nodes themselves.
func Parse(input string) (Statement, error) {
	sc := scratchPool.Get().(*parseScratch)
	defer func() {
		sc.p = parser{}
		scratchPool.Put(sc)
	}()
	toks, err := lexInto(sc.toks[:0], input)
	sc.toks = toks // keep any growth for the next caller
	if err != nil {
		return nil, err
	}
	sc.p = parser{toks: toks}
	p := &sc.p
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	if p.peek().Kind == TokSemicolon {
		p.next()
	}
	if p.peek().Kind != TokEOF {
		return nil, p.errf("unexpected trailing token %q", p.peek().Text)
	}
	return stmt, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) backup()     { p.pos-- }
func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Pos: p.peek().Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.Kind == TokKeyword && t.Text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, found %q", kw, p.peek().Text)
	}
	return nil
}

func (p *parser) expect(kind TokenKind, what string) (Token, error) {
	if t := p.peek(); t.Kind == kind {
		return p.next(), nil
	}
	return Token{}, p.errf("expected %s, found %q", what, p.peek().Text)
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return nil, p.errf("expected statement keyword, found %q", t.Text)
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	default:
		return nil, p.errf("unsupported statement %q", t.Text)
	}
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	if p.acceptKeyword("DISTINCT") {
		s.Distinct = true
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if p.peek().Kind != TokComma {
			break
		}
		p.next()
	}
	if p.acceptKeyword("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, ref)
			if p.peek().Kind != TokComma {
				break
			}
			p.next()
		}
		for {
			join, ok, err := p.parseJoin()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			s.Joins = append(s.Joins, join)
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, g)
			if p.peek().Kind != TokComma {
				break
			}
			p.next()
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if p.peek().Kind != TokComma {
				break
			}
			p.next()
		}
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		s.Limit = e
	}
	if p.acceptKeyword("OFFSET") {
		e, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		s.Offset = e
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// Bare `*` projection.
	if t := p.peek(); t.Kind == TokOperator && t.Text == "*" {
		p.next()
		return SelectItem{Expr: &ColumnRef{Column: "*"}}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		t, err := p.expect(TokIdent, "alias")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = t.Text
	} else if t := p.peek(); t.Kind == TokIdent {
		// Implicit alias.
		p.next()
		item.Alias = t.Text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	t, err := p.expect(TokIdent, "table name")
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: t.Text}
	if p.acceptKeyword("AS") {
		a, err := p.expect(TokIdent, "table alias")
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = a.Text
	} else if t := p.peek(); t.Kind == TokIdent {
		p.next()
		ref.Alias = t.Text
	}
	return ref, nil
}

// parseJoin parses one join clause if present.
func (p *parser) parseJoin() (Join, bool, error) {
	kind := ""
	switch {
	case p.acceptKeyword("INNER"):
		kind = "INNER"
	case p.acceptKeyword("LEFT"):
		p.acceptKeyword("OUTER")
		kind = "LEFT"
	case p.acceptKeyword("RIGHT"):
		p.acceptKeyword("OUTER")
		kind = "RIGHT"
	case p.peek().Kind == TokKeyword && p.peek().Text == "JOIN":
		kind = "INNER"
	default:
		return Join{}, false, nil
	}
	if err := p.expectKeyword("JOIN"); err != nil {
		return Join{}, false, err
	}
	ref, err := p.parseTableRef()
	if err != nil {
		return Join{}, false, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return Join{}, false, err
	}
	on, err := p.parseExpr()
	if err != nil {
		return Join{}, false, err
	}
	return Join{Kind: kind, Table: ref, On: on}, true, nil
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	t, err := p.expect(TokIdent, "table name")
	if err != nil {
		return nil, err
	}
	s := &InsertStmt{Table: TableRef{Name: t.Text}}
	if p.peek().Kind == TokLParen {
		p.next()
		for {
			c, err := p.expect(TokIdent, "column name")
			if err != nil {
				return nil, err
			}
			s.Columns = append(s.Columns, c.Text)
			if p.peek().Kind == TokComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(TokLParen, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.peek().Kind == TokComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, row)
		if p.peek().Kind == TokComma {
			p.next()
			continue
		}
		break
	}
	return s, nil
}

func (p *parser) parseUpdate() (*UpdateStmt, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	t, err := p.expect(TokIdent, "table name")
	if err != nil {
		return nil, err
	}
	s := &UpdateStmt{Table: TableRef{Name: t.Text}}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		c, err := p.expect(TokIdent, "column name")
		if err != nil {
			return nil, err
		}
		op, err := p.expect(TokOperator, "=")
		if err != nil || op.Text != "=" {
			return nil, p.errf("expected = in SET clause")
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Set = append(s.Set, Assignment{Column: c.Text, Value: v})
		if p.peek().Kind == TokComma {
			p.next()
			continue
		}
		break
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	return s, nil
}

func (p *parser) parseDelete() (*DeleteStmt, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	t, err := p.expect(TokIdent, "table name")
	if err != nil {
		return nil, err
	}
	s := &DeleteStmt{Table: TableRef{Name: t.Text}}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	return s, nil
}

// Expression grammar (precedence climbing):
//   expr    := andExpr (OR andExpr)*
//   andExpr := notExpr (AND notExpr)*
//   notExpr := NOT notExpr | predicate
//   predicate := additive ((cmp additive) | IN (...) | BETWEEN a AND b |
//                IS [NOT] NULL | [NOT] LIKE additive)?
//   additive := multiplicative ((+|-) multiplicative)*
//   multiplicative := primary ((*|/|%) primary)*

func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		// NOT renders its own parentheses; keeping an arithmetic group's
		// too would add a pair on every re-parse.
		if group, ok := inner.(*ParenExpr); ok {
			inner = group.Inner
		}
		return &NotExpr{Inner: inner}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	negated := false
	if t := p.peek(); t.Kind == TokKeyword && t.Text == "NOT" {
		// Lookahead for NOT IN / NOT BETWEEN / NOT LIKE.
		if p.pos+1 < len(p.toks) {
			nt := p.toks[p.pos+1]
			if nt.Kind == TokKeyword && (nt.Text == "IN" || nt.Text == "BETWEEN" || nt.Text == "LIKE") {
				p.next()
				negated = true
			}
		}
	}
	t := p.peek()
	switch {
	case t.Kind == TokOperator && isComparison(t.Text):
		p.next()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		op := t.Text
		if op == "<>" {
			op = "!="
		}
		return &BinaryExpr{Op: op, Left: left, Right: right}, nil
	case t.Kind == TokKeyword && t.Text == "LIKE":
		p.next()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		e := Expr(&BinaryExpr{Op: "LIKE", Left: left, Right: right})
		if negated {
			e = &NotExpr{Inner: e}
		}
		return e, nil
	case t.Kind == TokKeyword && t.Text == "IN":
		p.next()
		if _, err := p.expect(TokLParen, "("); err != nil {
			return nil, err
		}
		in := &InExpr{Left: left, Negated: negated}
		for {
			item, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.Items = append(in.Items, item)
			if p.peek().Kind == TokComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		return in, nil
	case t.Kind == TokKeyword && t.Text == "BETWEEN":
		p.next()
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Left: left, Lo: lo, Hi: hi, Negated: negated}, nil
	case t.Kind == TokKeyword && t.Text == "IS":
		p.next()
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Left: left, Negated: neg}, nil
	}
	if negated {
		return nil, p.errf("dangling NOT")
	}
	return left, nil
}

func isComparison(op string) bool {
	switch op {
	case "=", "<", ">", "<=", ">=", "!=", "<>":
		return true
	}
	return false
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokOperator || (t.Text != "+" && t.Text != "-") {
			return left, nil
		}
		p.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: t.Text, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokOperator || (t.Text != "*" && t.Text != "/" && t.Text != "%") {
			return left, nil
		}
		p.next()
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: t.Text, Left: left, Right: right}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		// Unify numeric spelling (e.g. 1e3) by keeping the source text;
		// consumers treat numbers opaquely.
		return &Literal{Kind: "number", Text: t.Text}, nil
	case TokString:
		p.next()
		return &Literal{Kind: "string", Text: t.Text}, nil
	case TokPlaceholder:
		p.next()
		return &Placeholder{Text: t.Text}, nil
	case TokOperator:
		if t.Text == "-" || t.Text == "+" {
			p.next()
			inner, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			if lit, ok := inner.(*Literal); ok && lit.Kind == "number" && t.Text == "-" {
				// Negating a negative literal drops its sign: "--0" would
				// render as the start of a line comment.
				if rest, neg := strings.CutPrefix(lit.Text, "-"); neg {
					return &Literal{Kind: "number", Text: rest}, nil
				}
				return &Literal{Kind: "number", Text: "-" + lit.Text}, nil
			}
			if t.Text == "-" {
				return &BinaryExpr{Op: "-", Left: &Literal{Kind: "number", Text: "0"}, Right: inner}, nil
			}
			return inner, nil
		}
		return nil, p.errf("unexpected operator %q", t.Text)
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &Literal{Kind: "null", Text: "NULL"}, nil
		case "TRUE":
			p.next()
			return &Literal{Kind: "bool", Text: "TRUE"}, nil
		case "FALSE":
			p.next()
			return &Literal{Kind: "bool", Text: "FALSE"}, nil
		}
		return nil, p.errf("unexpected keyword %q in expression", t.Text)
	case TokLParen:
		p.next()
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		// Only arithmetic needs an explicit grouping node to preserve
		// precedence in the rendered SQL; logical and comparison structure
		// is already encoded by the AST (AND/OR self-parenthesize), and
		// keeping redundant parens would make canonicalization
		// non-idempotent.
		if b, ok := inner.(*BinaryExpr); ok {
			switch b.Op {
			case "+", "-", "*", "/", "%":
				return &ParenExpr{Inner: inner}, nil
			}
		}
		return inner, nil
	case TokIdent:
		p.next()
		// Function call?
		if p.peek().Kind == TokLParen {
			return p.parseFuncCall(t.Text)
		}
		// Qualified column?
		if p.peek().Kind == TokDot {
			p.next()
			nt := p.peek()
			if nt.Kind == TokOperator && nt.Text == "*" {
				p.next()
				return &ColumnRef{Table: t.Text, Column: "*"}, nil
			}
			col, err := p.expect(TokIdent, "column name")
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.Text, Column: col.Text}, nil
		}
		return &ColumnRef{Column: t.Text}, nil
	}
	return nil, p.errf("unexpected token %q", t.Text)
}

func (p *parser) parseFuncCall(name string) (Expr, error) {
	if _, err := p.expect(TokLParen, "("); err != nil {
		return nil, err
	}
	f := &FuncCall{Name: strings.ToUpper(name)}
	if p.acceptKeyword("DISTINCT") {
		f.Distinct = true
	}
	if t := p.peek(); t.Kind == TokOperator && t.Text == "*" {
		p.next()
		f.Star = true
	} else if p.peek().Kind != TokRParen {
		for {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, arg)
			if p.peek().Kind == TokComma {
				p.next()
				continue
			}
			break
		}
	}
	if _, err := p.expect(TokRParen, ")"); err != nil {
		return nil, err
	}
	return f, nil
}
