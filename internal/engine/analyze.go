package engine

import (
	"sort"
	"strings"

	"qb5000/internal/sqlparse"
)

// ColumnPredicate is one index-usable predicate found in a statement:
// table.column compared with Op ("=", "<", "<=", ">", ">=", "IN",
// "BETWEEN"). The index selector builds its candidates from these.
type ColumnPredicate struct {
	Table  string
	Column string
	Op     string
}

// AnalyzePredicates extracts the sargable predicates of a statement against
// the engine's catalog, including join equalities (an `a.x = b.y` join
// predicate yields an equality predicate on each side).
func (e *Engine) AnalyzePredicates(stmt sqlparse.Statement) []ColumnPredicate {
	var out []ColumnPredicate
	add := func(t *Table, alias string, filter sqlparse.Expr) {
		if filter == nil {
			return
		}
		// Emit predicates in sorted column order; ranging over the sarg map
		// directly would make the slice order vary run to run.
		sargs := extractSargs(filter, alias, t)
		cols := make([]string, 0, len(sargs))
		for col := range sargs {
			cols = append(cols, col)
		}
		sort.Strings(cols)
		for _, col := range cols {
			for _, s := range sargs[col] {
				out = append(out, ColumnPredicate{Table: t.Name, Column: col, Op: s.op})
			}
		}
	}
	switch s := stmt.(type) {
	case *sqlparse.SelectStmt:
		filters := []sqlparse.Expr{s.Where}
		for i := range s.Joins {
			filters = append(filters, s.Joins[i].On)
		}
		combined := andAll(nonNil(filters))
		visit := func(tr sqlparse.TableRef) {
			t, ok := e.Table(tr.Name)
			if !ok {
				return
			}
			alias := strings.ToLower(tr.Alias)
			if alias == "" {
				alias = t.Name
			}
			add(t, alias, combined)
		}
		for _, tr := range s.From {
			visit(tr)
		}
		for i := range s.Joins {
			visit(s.Joins[i].Table)
		}
	case *sqlparse.UpdateStmt:
		if t, ok := e.Table(s.Table.Name); ok {
			alias := strings.ToLower(s.Table.Alias)
			if alias == "" {
				alias = t.Name
			}
			add(t, alias, s.Where)
		}
	case *sqlparse.DeleteStmt:
		if t, ok := e.Table(s.Table.Name); ok {
			alias := strings.ToLower(s.Table.Alias)
			if alias == "" {
				alias = t.Name
			}
			add(t, alias, s.Where)
		}
	}
	return out
}

func nonNil(es []sqlparse.Expr) []sqlparse.Expr {
	out := es[:0]
	for _, e := range es {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

// DistinctCount returns the (exact) number of distinct values in a column,
// used by the index selector's selectivity estimates. The scan is O(rows);
// callers cache the result.
func (e *Engine) DistinctCount(table, column string) int {
	t, ok := e.Table(table)
	if !ok {
		return 0
	}
	pos, ok := t.ColumnIndex(column)
	if !ok {
		return 0
	}
	seen := make(map[string]bool)
	for _, row := range t.rows {
		if row == nil {
			continue
		}
		seen[row[pos].String()] = true
	}
	return len(seen)
}

// EstimateCost approximates the execution cost (in cost-model units) of a
// statement given a hypothetical set of available indexes described as
// table → column lists. It mirrors the executor's access-path choice: the
// longest matching equality prefix wins, range predicates bound one more
// column, everything else is a sequential scan.
func (e *Engine) EstimateCost(stmt sqlparse.Statement, hypothetical map[string][][]string, distinct func(table, col string) int) float64 {
	preds := e.AnalyzePredicates(stmt)
	perTable := make(map[string][]ColumnPredicate)
	for _, p := range preds {
		perTable[p.Table] = append(perTable[p.Table], p)
	}

	tables := statementTables(stmt)
	var total float64
	for _, tn := range tables {
		t, ok := e.Table(tn)
		if !ok {
			continue
		}
		n := float64(t.RowCount())
		best := n * unitRowScan // sequential scan baseline
		for _, cols := range hypothetical[t.Name] {
			sel := 1.0
			matched := 0
			for _, c := range cols {
				op := bestOpFor(perTable[t.Name], c)
				if op == "" {
					break
				}
				if op == "=" || op == "IN" {
					d := distinct(t.Name, c)
					if d < 1 {
						d = 1
					}
					sel /= float64(d)
					matched++
					continue
				}
				// Range predicate bounds this column and ends the prefix.
				sel *= 0.05
				matched++
				break
			}
			if matched == 0 {
				continue
			}
			rows := n * sel
			cost := unitIndexPage*12 + unitRowMatch*rows
			if cost < best {
				best = cost
			}
		}
		total += best
	}
	if total == 0 {
		total = unitQueryFixed
	}
	return total
}

func bestOpFor(preds []ColumnPredicate, col string) string {
	op := ""
	for _, p := range preds {
		if p.Column != col {
			continue
		}
		if p.Op == "=" || p.Op == "IN" {
			return "="
		}
		op = p.Op
	}
	return op
}

// statementTables lists the tables a statement touches.
func statementTables(stmt sqlparse.Statement) []string {
	var out []string
	switch s := stmt.(type) {
	case *sqlparse.SelectStmt:
		for _, tr := range s.From {
			out = append(out, strings.ToLower(tr.Name))
		}
		for i := range s.Joins {
			out = append(out, strings.ToLower(s.Joins[i].Table.Name))
		}
	case *sqlparse.InsertStmt:
		out = append(out, strings.ToLower(s.Table.Name))
	case *sqlparse.UpdateStmt:
		out = append(out, strings.ToLower(s.Table.Name))
	case *sqlparse.DeleteStmt:
		out = append(out, strings.ToLower(s.Table.Name))
	}
	return out
}
