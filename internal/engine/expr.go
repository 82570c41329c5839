package engine

import (
	"fmt"
	"strings"

	"qb5000/internal/sqlparse"
)

// KindMax is a sentinel kind ordering above every real value; index range
// scans use it as the +∞ bound for key prefixes.
const KindMax ValueKind = 100

// maxSentinel is the +∞ key component.
var maxSentinel = Value{Kind: KindMax}

// binding resolves column references against the rows currently joined.
type binding struct {
	entries []boundRow
}

type boundRow struct {
	alias string // lower-case alias or table name
	table *Table
	row   []Value
}

func (b *binding) push(alias string, t *Table, row []Value) {
	b.entries = append(b.entries, boundRow{alias: strings.ToLower(alias), table: t, row: row})
}

func (b *binding) pop() { b.entries = b.entries[:len(b.entries)-1] }

// resolve finds the value for a column reference.
func (b *binding) resolve(c *sqlparse.ColumnRef) (Value, error) {
	col := strings.ToLower(c.Column)
	qual := strings.ToLower(c.Table)
	for i := len(b.entries) - 1; i >= 0; i-- {
		e := b.entries[i]
		if qual != "" && e.alias != qual && e.table.Name != qual {
			continue
		}
		if idx, ok := e.table.ColumnIndex(col); ok {
			return e.row[idx], nil
		}
		if qual != "" {
			return Null, fmt.Errorf("engine: unknown column %q in table %q", col, qual)
		}
	}
	return Null, fmt.Errorf("engine: unresolved column %q", col)
}

// evalExpr evaluates a scalar expression against the binding.
func evalExpr(e sqlparse.Expr, b *binding) (Value, error) {
	switch x := e.(type) {
	case *sqlparse.Literal:
		return literalValue(x)
	case *sqlparse.Placeholder:
		return Null, fmt.Errorf("engine: cannot execute query with unbound placeholder")
	case *sqlparse.ColumnRef:
		return b.resolve(x)
	case *sqlparse.ParenExpr:
		return evalExpr(x.Inner, b)
	case *sqlparse.NotExpr:
		v, err := evalExpr(x.Inner, b)
		if err != nil {
			return Null, err
		}
		return BoolVal(!v.Truthy()), nil
	case *sqlparse.IsNullExpr:
		v, err := evalExpr(x.Left, b)
		if err != nil {
			return Null, err
		}
		return BoolVal(v.IsNull() != x.Negated), nil
	case *sqlparse.BetweenExpr:
		v, err := evalExpr(x.Left, b)
		if err != nil {
			return Null, err
		}
		lo, err := evalExpr(x.Lo, b)
		if err != nil {
			return Null, err
		}
		hi, err := evalExpr(x.Hi, b)
		if err != nil {
			return Null, err
		}
		in := Compare(v, lo) >= 0 && Compare(v, hi) <= 0
		return BoolVal(in != x.Negated), nil
	case *sqlparse.InExpr:
		v, err := evalExpr(x.Left, b)
		if err != nil {
			return Null, err
		}
		found := false
		for _, item := range x.Items {
			iv, err := evalExpr(item, b)
			if err != nil {
				return Null, err
			}
			if Compare(v, iv) == 0 {
				found = true
				break
			}
		}
		return BoolVal(found != x.Negated), nil
	case *sqlparse.BinaryExpr:
		return evalBinary(x, b)
	case *sqlparse.FuncCall:
		return Null, fmt.Errorf("engine: function %s outside aggregate context", x.Name)
	default:
		return Null, fmt.Errorf("engine: unsupported expression %T", e)
	}
}

func literalValue(l *sqlparse.Literal) (Value, error) {
	switch l.Kind {
	case "number":
		return ParseNumber(l.Text)
	case "string":
		return StringVal(l.Text), nil
	case "null":
		return Null, nil
	case "bool":
		return BoolVal(l.Text == "TRUE"), nil
	default:
		return Null, fmt.Errorf("engine: unknown literal kind %q", l.Kind)
	}
}

func evalBinary(x *sqlparse.BinaryExpr, b *binding) (Value, error) {
	switch x.Op {
	case "AND":
		l, err := evalExpr(x.Left, b)
		if err != nil {
			return Null, err
		}
		if !l.Truthy() {
			return BoolVal(false), nil
		}
		r, err := evalExpr(x.Right, b)
		if err != nil {
			return Null, err
		}
		return BoolVal(r.Truthy()), nil
	case "OR":
		l, err := evalExpr(x.Left, b)
		if err != nil {
			return Null, err
		}
		if l.Truthy() {
			return BoolVal(true), nil
		}
		r, err := evalExpr(x.Right, b)
		if err != nil {
			return Null, err
		}
		return BoolVal(r.Truthy()), nil
	}
	l, err := evalExpr(x.Left, b)
	if err != nil {
		return Null, err
	}
	r, err := evalExpr(x.Right, b)
	if err != nil {
		return Null, err
	}
	switch x.Op {
	case "=":
		return BoolVal(!l.IsNull() && !r.IsNull() && Compare(l, r) == 0), nil
	case "!=":
		return BoolVal(!l.IsNull() && !r.IsNull() && Compare(l, r) != 0), nil
	case "<":
		return BoolVal(Compare(l, r) < 0), nil
	case "<=":
		return BoolVal(Compare(l, r) <= 0), nil
	case ">":
		return BoolVal(Compare(l, r) > 0), nil
	case ">=":
		return BoolVal(Compare(l, r) >= 0), nil
	case "LIKE":
		if l.Kind != KindString || r.Kind != KindString {
			return BoolVal(false), nil
		}
		return BoolVal(likeMatch(l.Str, r.Str)), nil
	case "+", "-", "*", "/", "%":
		return arith(x.Op, l, r)
	default:
		return Null, fmt.Errorf("engine: unsupported operator %q", x.Op)
	}
}

func arith(op string, l, r Value) (Value, error) {
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return Null, fmt.Errorf("engine: arithmetic on non-numeric values")
	}
	bothInt := l.Kind == KindInt && r.Kind == KindInt
	switch op {
	case "+":
		if bothInt {
			return IntVal(l.Int + r.Int), nil
		}
		return FloatVal(lf + rf), nil
	case "-":
		if bothInt {
			return IntVal(l.Int - r.Int), nil
		}
		return FloatVal(lf - rf), nil
	case "*":
		if bothInt {
			return IntVal(l.Int * r.Int), nil
		}
		return FloatVal(lf * rf), nil
	case "/":
		if rf == 0 {
			return Null, nil
		}
		return FloatVal(lf / rf), nil
	case "%":
		if bothInt {
			if r.Int == 0 {
				return Null, nil
			}
			return IntVal(l.Int % r.Int), nil
		}
		return Null, fmt.Errorf("engine: %% requires integers")
	}
	return Null, fmt.Errorf("engine: unknown arithmetic op %q", op)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single char),
// by recursive descent with memo-free backtracking (patterns in the traces
// are short).
func likeMatch(s, pattern string) bool {
	if pattern == "" {
		return s == ""
	}
	switch pattern[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeMatch(s[i:], pattern[1:]) {
				return true
			}
		}
		return false
	case '_':
		return s != "" && likeMatch(s[1:], pattern[1:])
	default:
		return s != "" && s[0] == pattern[0] && likeMatch(s[1:], pattern[1:])
	}
}
