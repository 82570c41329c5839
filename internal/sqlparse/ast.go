package sqlparse

import (
	"fmt"
	"strings"
)

// Statement is a parsed SQL statement.
type Statement interface {
	// Type returns the statement's command type.
	Type() StatementType
	// SQL renders the statement in canonical form: upper-case keywords,
	// single spacing, lower-case identifiers, normalized parentheses. This
	// is the normalization step of the Pre-Processor (§4).
	SQL() string
}

// StatementType enumerates the four DML commands in the traces.
type StatementType int

// Statement types.
const (
	StmtSelect StatementType = iota
	StmtInsert
	StmtUpdate
	StmtDelete
)

// String returns the SQL verb.
func (t StatementType) String() string {
	switch t {
	case StmtSelect:
		return "SELECT"
	case StmtInsert:
		return "INSERT"
	case StmtUpdate:
		return "UPDATE"
	case StmtDelete:
		return "DELETE"
	default:
		return fmt.Sprintf("StatementType(%d)", int(t))
	}
}

// Expr is an expression node.
type Expr interface {
	// exprSQL renders the expression canonically.
	exprSQL(sb *strings.Builder)
}

// ExprSQL renders any expression in canonical form.
func ExprSQL(e Expr) string {
	var sb strings.Builder
	e.exprSQL(&sb)
	return sb.String()
}

// Literal is a constant value in the original query text.
type Literal struct {
	// Kind is one of "number", "string", "null", "bool".
	Kind string
	// Text is the literal's value: the digits for numbers, the unquoted
	// body for strings, "NULL", "TRUE", or "FALSE".
	Text string
}

func (l *Literal) exprSQL(sb *strings.Builder) {
	switch l.Kind {
	case "string":
		writeQuoted(sb, l.Text)
	default:
		sb.WriteString(l.Text)
	}
}

// QuoteString renders s as the single-quoted string literal that lexes back
// to exactly s. A body with nothing to escape — nearly all of them — costs
// one scan and one concatenation.
func QuoteString(s string) string {
	if !strings.ContainsAny(s, `'\`) {
		return "'" + s + "'"
	}
	var sb strings.Builder
	writeQuoted(&sb, s)
	return sb.String()
}

// writeQuoted writes s between single quotes. The lexer takes a doubled
// quote for one quote and a backslash for an escape of the next byte, so
// each of the two is written twice.
func writeQuoted(sb *strings.Builder, s string) {
	sb.WriteByte('\'')
	for {
		i := strings.IndexAny(s, `'\`)
		if i < 0 {
			break
		}
		sb.WriteString(s[:i+1])
		sb.WriteByte(s[i])
		s = s[i+1:]
	}
	sb.WriteString(s)
	sb.WriteByte('\'')
}

// Placeholder is a parameter marker: either one present in the original text
// ("?", "$1") or one the Pre-Processor substituted for a literal.
type Placeholder struct {
	Text string // canonical form is "?"
}

func (p *Placeholder) exprSQL(sb *strings.Builder) { sb.WriteString("?") }

// ColumnRef is a possibly table-qualified column reference.
type ColumnRef struct {
	Table  string // optional qualifier, lower-cased in canonical output
	Column string // "*" for star
}

func (c *ColumnRef) exprSQL(sb *strings.Builder) {
	if c.Table != "" {
		sb.WriteString(strings.ToLower(c.Table))
		sb.WriteByte('.')
	}
	sb.WriteString(strings.ToLower(c.Column))
}

// BinaryExpr is a binary operation (comparison, logical, or arithmetic).
// Op is upper-case: =, <, >, <=, >=, !=, LIKE, AND, OR, +, -, *, /, %.
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

func (b *BinaryExpr) exprSQL(sb *strings.Builder) {
	if b.Op == "AND" || b.Op == "OR" {
		sb.WriteByte('(')
		b.Left.exprSQL(sb)
		sb.WriteByte(' ')
		sb.WriteString(b.Op)
		sb.WriteByte(' ')
		b.Right.exprSQL(sb)
		sb.WriteByte(')')
		return
	}
	writeOperand(sb, b.Left)
	sb.WriteByte(' ')
	sb.WriteString(b.Op)
	sb.WriteByte(' ')
	writeOperand(sb, b.Right)
}

// writeOperand renders e as an operand of a comparison, an arithmetic
// operator or an IN / BETWEEN / IS predicate. The grammar does not chain
// predicates, so one in operand position was parenthesized in the source;
// the parser keeps no node for those parentheses (only arithmetic groups get
// a ParenExpr), so they are written back here — "(0 > 0) = 0" must not
// render as "0 > 0 = 0", which does not parse.
func writeOperand(sb *strings.Builder, e Expr) {
	if !isPredicate(e) {
		e.exprSQL(sb)
		return
	}
	sb.WriteByte('(')
	e.exprSQL(sb)
	sb.WriteByte(')')
}

// isPredicate reports whether e is a comparison, LIKE, NOT, IN, BETWEEN or
// IS NULL. AND and OR are left out: they render their own parentheses.
func isPredicate(e Expr) bool {
	switch e := e.(type) {
	case *BinaryExpr:
		switch e.Op {
		case "+", "-", "*", "/", "%", "AND", "OR":
			return false
		}
		return true
	case *NotExpr, *InExpr, *BetweenExpr, *IsNullExpr:
		return true
	}
	return false
}

// NotExpr negates an expression.
type NotExpr struct{ Inner Expr }

func (n *NotExpr) exprSQL(sb *strings.Builder) {
	sb.WriteString("NOT (")
	n.Inner.exprSQL(sb)
	sb.WriteByte(')')
}

// InExpr is `expr [NOT] IN (item, ...)`.
type InExpr struct {
	Left    Expr
	Items   []Expr
	Negated bool
}

func (e *InExpr) exprSQL(sb *strings.Builder) {
	writeOperand(sb, e.Left)
	if e.Negated {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" IN (")
	for i, it := range e.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		it.exprSQL(sb)
	}
	sb.WriteByte(')')
}

// BetweenExpr is `expr [NOT] BETWEEN lo AND hi`.
type BetweenExpr struct {
	Left, Lo, Hi Expr
	Negated      bool
}

func (e *BetweenExpr) exprSQL(sb *strings.Builder) {
	writeOperand(sb, e.Left)
	if e.Negated {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" BETWEEN ")
	writeOperand(sb, e.Lo)
	sb.WriteString(" AND ")
	writeOperand(sb, e.Hi)
}

// IsNullExpr is `expr IS [NOT] NULL`.
type IsNullExpr struct {
	Left    Expr
	Negated bool
}

func (e *IsNullExpr) exprSQL(sb *strings.Builder) {
	writeOperand(sb, e.Left)
	if e.Negated {
		sb.WriteString(" IS NOT NULL")
	} else {
		sb.WriteString(" IS NULL")
	}
}

// FuncCall is a function invocation such as COUNT(*) or SUM(col).
type FuncCall struct {
	Name     string // upper-cased in canonical output
	Args     []Expr
	Distinct bool
	Star     bool // COUNT(*)
}

func (f *FuncCall) exprSQL(sb *strings.Builder) {
	sb.WriteString(strings.ToUpper(f.Name))
	sb.WriteByte('(')
	if f.Distinct {
		sb.WriteString("DISTINCT ")
	}
	if f.Star {
		sb.WriteByte('*')
	}
	for i, a := range f.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		a.exprSQL(sb)
	}
	sb.WriteByte(')')
}

// ParenExpr preserves explicit grouping around arithmetic.
type ParenExpr struct{ Inner Expr }

func (p *ParenExpr) exprSQL(sb *strings.Builder) {
	sb.WriteByte('(')
	p.Inner.exprSQL(sb)
	sb.WriteByte(')')
}

// SelectItem is one projection in a SELECT list.
type SelectItem struct {
	Expr  Expr
	Alias string // optional
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

func (t *TableRef) sql(sb *strings.Builder) {
	sb.WriteString(strings.ToLower(t.Name))
	if t.Alias != "" {
		sb.WriteString(" AS ")
		sb.WriteString(strings.ToLower(t.Alias))
	}
}

// Join is an explicit join clause.
type Join struct {
	Kind  string // "INNER", "LEFT", "RIGHT"
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a SELECT statement.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef // comma-separated FROM list
	Joins    []Join
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // nil if absent
	Offset   Expr // nil if absent
}

// Type implements Statement.
func (s *SelectStmt) Type() StatementType { return StmtSelect }

// SQL implements Statement.
func (s *SelectStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		it.Expr.exprSQL(&sb)
		if it.Alias != "" {
			sb.WriteString(" AS ")
			sb.WriteString(strings.ToLower(it.Alias))
		}
	}
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		for i := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			s.From[i].sql(&sb)
		}
	}
	for i := range s.Joins {
		j := &s.Joins[i]
		sb.WriteByte(' ')
		sb.WriteString(j.Kind)
		sb.WriteString(" JOIN ")
		j.Table.sql(&sb)
		sb.WriteString(" ON ")
		j.On.exprSQL(&sb)
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		s.Where.exprSQL(&sb)
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			g.exprSQL(&sb)
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING ")
		s.Having.exprSQL(&sb)
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			o.Expr.exprSQL(&sb)
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		sb.WriteString(" LIMIT ")
		s.Limit.exprSQL(&sb)
	}
	if s.Offset != nil {
		sb.WriteString(" OFFSET ")
		s.Offset.exprSQL(&sb)
	}
	return sb.String()
}

// InsertStmt is an INSERT statement. BatchSize records how many VALUES
// tuples the original query carried; the Pre-Processor tracks it for batched
// INSERTs (§4).
type InsertStmt struct {
	Table   TableRef
	Columns []string
	Rows    [][]Expr
}

// Type implements Statement.
func (s *InsertStmt) Type() StatementType { return StmtInsert }

// BatchSize returns the number of VALUES tuples.
func (s *InsertStmt) BatchSize() int { return len(s.Rows) }

// SQL implements Statement.
func (s *InsertStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO ")
	s.Table.sql(&sb)
	if len(s.Columns) > 0 {
		sb.WriteString(" (")
		for i, c := range s.Columns {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(strings.ToLower(c))
		}
		sb.WriteByte(')')
	}
	sb.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		for j, e := range row {
			if j > 0 {
				sb.WriteString(", ")
			}
			e.exprSQL(&sb)
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// Assignment is one `col = expr` in an UPDATE SET list.
type Assignment struct {
	Column string
	Value  Expr
}

// UpdateStmt is an UPDATE statement.
type UpdateStmt struct {
	Table TableRef
	Set   []Assignment
	Where Expr
}

// Type implements Statement.
func (s *UpdateStmt) Type() StatementType { return StmtUpdate }

// SQL implements Statement.
func (s *UpdateStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("UPDATE ")
	s.Table.sql(&sb)
	sb.WriteString(" SET ")
	for i, a := range s.Set {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(strings.ToLower(a.Column))
		sb.WriteString(" = ")
		a.Value.exprSQL(&sb)
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		s.Where.exprSQL(&sb)
	}
	return sb.String()
}

// DeleteStmt is a DELETE statement.
type DeleteStmt struct {
	Table TableRef
	Where Expr
}

// Type implements Statement.
func (s *DeleteStmt) Type() StatementType { return StmtDelete }

// SQL implements Statement.
func (s *DeleteStmt) SQL() string {
	var sb strings.Builder
	sb.WriteString("DELETE FROM ")
	s.Table.sql(&sb)
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		s.Where.exprSQL(&sb)
	}
	return sb.String()
}
