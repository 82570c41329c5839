package preprocess

import (
	"strings"
	"time"

	"qb5000/internal/sqlparse"
	"qb5000/internal/timeseries"
)

// Param is one extracted constant with the clause position it came from.
type Param struct {
	// Kind mirrors sqlparse.Literal.Kind: "number", "string", "null", "bool".
	Kind string
	// Value is the literal text.
	Value string
}

// TemplatizeResult is the outcome of templatizing one raw query.
type TemplatizeResult struct {
	// SQL is the canonical template string with placeholders.
	SQL string
	// Stmt is the templatized AST (literals replaced with placeholders;
	// batched INSERT rows collapsed to one).
	Stmt sqlparse.Statement
	// Params are the constants stripped from the first logical tuple, in
	// walk order.
	Params []Param
	// BatchSize is the number of VALUES tuples for INSERTs (1 otherwise).
	BatchSize int
	// Features are the logical features of the template.
	Features sqlparse.Features
}

// Templatize parses a raw SQL string and converts it into a generic template
// per §4: constants in WHERE predicates, UPDATE SET fields, INSERT VALUES
// (and every other literal position) become placeholders; batched INSERTs
// collapse to a single tuple with the batch size recorded; formatting is
// normalized by rendering the canonical AST.
func Templatize(raw string) (*TemplatizeResult, error) {
	stmt, err := sqlparse.Parse(raw)
	if err != nil {
		return nil, err
	}
	res := &TemplatizeResult{BatchSize: 1}

	if ins, ok := stmt.(*sqlparse.InsertStmt); ok && len(ins.Rows) > 1 {
		res.BatchSize = len(ins.Rows)
		ins.Rows = ins.Rows[:1]
	}

	sqlparse.WalkExprs(stmt, func(e sqlparse.Expr) sqlparse.Expr {
		lit, ok := e.(*sqlparse.Literal)
		if !ok {
			return nil
		}
		res.Params = append(res.Params, Param{Kind: lit.Kind, Value: lit.Text})
		return &sqlparse.Placeholder{Text: "?"}
	})

	res.Stmt = stmt
	res.SQL = stmt.SQL()
	res.Features = sqlparse.ExtractFeatures(stmt)
	return res, nil
}

// Template is the unit the rest of the pipeline works with: a set of
// semantically equivalent query shapes plus their combined arrival history.
type Template struct {
	// ID is a stable identifier assigned by the Preprocessor.
	ID int64
	// SQL is the canonical template text of the first query shape folded in.
	SQL string
	// Key is the semantic-equivalence key (§4).
	Key string
	// Features are the template's logical features.
	Features sqlparse.Features
	// History is the arrival-rate record at one-minute granularity.
	History *timeseries.History
	// Params samples original parameters (reservoir, §4).
	Params *Reservoir
	// FirstSeen and LastSeen bound the template's activity.
	FirstSeen, LastSeen time.Time
	// Count is the total number of queries folded into this template
	// (batched INSERT tuples count once per statement).
	Count int64
	// Tuples is the total number of VALUES tuples observed — for batched
	// INSERTs the paper tracks tuple volume separately from statement
	// volume (§4). For non-INSERT templates it equals Count.
	Tuples int64
}

// Clone deep-copies the template's mutable state — history and reservoir —
// so the copy can be read without synchronization while the original keeps
// recording under its shard lock. SQL, Key, and Features are immutable after
// creation and are shared.
func (t *Template) Clone() *Template {
	c := *t
	c.History = t.History.Clone()
	c.Params = t.Params.Clone()
	return &c
}

// Record notes one arrival of the template at time t.
func (t *Template) Record(at time.Time, params []Param) {
	t.recordVals(at, renderParams(params))
}

// recordVals is Record with the parameter literals already rendered. The
// fingerprint-cache hit path calls it with the vals captured at the entry's
// one real parse, so a hit feeds the reservoir the exact stream a miss
// would without re-rendering (or allocating) per arrival.
//
// qb5000:noalloc
func (t *Template) recordVals(at time.Time, vals []string) {
	t.Count++
	if t.Count == 1 || at.Before(t.FirstSeen) {
		t.FirstSeen = at
	}
	if at.After(t.LastSeen) {
		t.LastSeen = at
	}
	//lint:ignore noalloc a minute past the fine tier's capacity grows it by max(n/8, a day of bins): 28 allocations in 31 days of minutes (timeseries.TestRecordMinuteLoopAllocs)
	t.History.Record(at, 1)
	if len(vals) > 0 {
		//lint:ignore noalloc the reservoir copies a vector with probability capacity/seen, vanishing in steady state
		t.Params.Observe(vals)
	}
}

// renderParams renders each extracted parameter as the SQL literal the
// reservoir samples; nil for a parameter-free statement.
func renderParams(params []Param) []string {
	if len(params) == 0 {
		return nil
	}
	vals := make([]string, len(params))
	for i, p := range params {
		vals[i] = p.SQL()
	}
	return vals
}

// SQL renders the parameter as a SQL literal, so sampled parameters can be
// substituted back into a template's placeholders.
func (p Param) SQL() string {
	if p.Kind == "string" {
		return sqlparse.QuoteString(p.Value)
	}
	return p.Value
}

// Instantiate substitutes the given SQL-literal parameters into the
// template's placeholders in order. Extra placeholders are left as-is; extra
// parameters are ignored. The planning module uses this to re-create
// representative queries for cost estimation (§4).
func Instantiate(templateSQL string, params []string) string {
	var sb strings.Builder
	n := 0
	for i := 0; i < len(templateSQL); i++ {
		c := templateSQL[i]
		if c == '?' && n < len(params) {
			sb.WriteString(params[n])
			n++
			continue
		}
		sb.WriteByte(c)
	}
	return sb.String()
}
