// Package engine implements the embedded relational engine that stands in
// for MySQL/PostgreSQL in the index-selection experiments (paper §7.6,
// Figures 11/12). It provides heap tables, multi-column B+Tree secondary
// indexes, a predicate-driven access-path planner, and a deterministic cost
// model that charges per row examined — enough for the relative
// AUTO/STATIC/AUTO-LOGICAL comparison the paper reports, where a missing
// index costs O(N) per query and a matching index costs O(log N + k).
package engine

import (
	"fmt"
	"strconv"
	"strings"
)

// ValueKind tags a Value.
type ValueKind int

// Value kinds.
const (
	KindNull ValueKind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// Value is a dynamically-typed SQL value.
type Value struct {
	Kind  ValueKind
	Int   int64
	Float float64
	Str   string
	Bool  bool
}

// Null is the SQL NULL value.
var Null = Value{Kind: KindNull}

// IntVal builds an integer value.
func IntVal(v int64) Value { return Value{Kind: KindInt, Int: v} }

// FloatVal builds a float value.
func FloatVal(v float64) Value { return Value{Kind: KindFloat, Float: v} }

// StringVal builds a string value.
func StringVal(v string) Value { return Value{Kind: KindString, Str: v} }

// BoolVal builds a boolean value.
func BoolVal(v bool) Value { return Value{Kind: KindBool, Bool: v} }

// ParseNumber converts a SQL numeric literal into an int or float value.
func ParseNumber(text string) (Value, error) {
	if strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Null, fmt.Errorf("engine: bad number %q: %w", text, err)
		}
		return FloatVal(f), nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		f, ferr := strconv.ParseFloat(text, 64)
		if ferr != nil {
			return Null, fmt.Errorf("engine: bad number %q: %w", text, err)
		}
		return FloatVal(f), nil
	}
	return IntVal(i), nil
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsFloat coerces numeric values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.Int), true
	case KindFloat:
		return v.Float, true
	case KindBool:
		if v.Bool {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// Truthy reports whether the value counts as true in a WHERE context.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KindBool:
		return v.Bool
	case KindInt:
		return v.Int != 0
	case KindFloat:
		return v.Float != 0
	case KindString:
		return v.Str != ""
	default:
		return false
	}
}

// String renders the value for output.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindString:
		return v.Str
	case KindBool:
		if v.Bool {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("Value(kind=%d)", int(v.Kind))
	}
}

// Compare orders two values: -1, 0, or +1. The order is total (index
// B+Trees depend on transitivity): NULL first, then the numeric class
// (ints, floats, booleans — compared after float coercion), then strings,
// then sentinels. Ordering by type *class* rather than raw kind tag keeps
// the relation transitive even though booleans coerce numerically.
func Compare(a, b Value) int {
	ca, cb := typeClass(a), typeClass(b)
	if ca != cb {
		if ca < cb {
			return -1
		}
		return 1
	}
	switch ca {
	case classNumeric:
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	case classString:
		return strings.Compare(a.Str, b.Str)
	default: // NULLs and sentinels are equal within their class
		return 0
	}
}

// Type classes for the total order.
const (
	classNull = iota
	classNumeric
	classString
	classSentinel
)

func typeClass(v Value) int {
	switch v.Kind {
	case KindNull:
		return classNull
	case KindInt, KindFloat, KindBool:
		return classNumeric
	case KindString:
		return classString
	default:
		return classSentinel
	}
}

// Key is a composite index key.
type Key []Value

// KeyLess is the lexicographic ordering used by index B+Trees.
func KeyLess(a, b Key) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch Compare(a[i], b[i]) {
		case -1:
			return true
		case 1:
			return false
		}
	}
	return len(a) < len(b)
}
