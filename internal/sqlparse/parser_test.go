package sqlparse

import (
	"fmt"
	"strings"
	"testing"
)

// roundTrips maps raw SQL to its expected canonical rendering.
var roundTrips = []struct{ in, want string }{
	{
		"select a,b from t",
		"SELECT a, b FROM t",
	},
	{
		"SELECT * FROM users WHERE id = 42",
		"SELECT * FROM users WHERE id = 42",
	},
	{
		"select  DISTINCT  U.Name  from  Users  U  where  u.age >= 21",
		"SELECT DISTINCT u.name FROM users AS u WHERE u.age >= 21",
	},
	{
		"SELECT COUNT(*) FROM t GROUP BY x HAVING COUNT(*) > 5",
		"SELECT COUNT(*) FROM t GROUP BY x HAVING COUNT(*) > 5",
	},
	{
		"SELECT a FROM t ORDER BY a DESC, b ASC LIMIT 10 OFFSET 5",
		"SELECT a FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 5",
	},
	{
		"SELECT r.id FROM routes r JOIN route_stops rs ON r.id = rs.route_id WHERE rs.stop_id = 3",
		"SELECT r.id FROM routes AS r INNER JOIN route_stops AS rs ON r.id = rs.route_id WHERE rs.stop_id = 3",
	},
	{
		"SELECT a FROM t LEFT OUTER JOIN u ON t.id = u.tid",
		"SELECT a FROM t LEFT JOIN u ON t.id = u.tid",
	},
	{
		"SELECT a FROM t WHERE x IN (1, 2, 3) AND y BETWEEN 4 AND 5",
		"SELECT a FROM t WHERE (x IN (1, 2, 3) AND y BETWEEN 4 AND 5)",
	},
	{
		"SELECT a FROM t WHERE name LIKE 'foo%' OR note IS NOT NULL",
		"SELECT a FROM t WHERE (name LIKE 'foo%' OR note IS NOT NULL)",
	},
	{
		"SELECT a FROM t WHERE NOT x = 1",
		"SELECT a FROM t WHERE NOT (x = 1)",
	},
	{
		"SELECT a + b * 2 FROM t",
		"SELECT a + b * 2 FROM t",
	},
	{
		"SELECT (a + b) / 2 AS half FROM t",
		"SELECT (a + b) / 2 AS half FROM t",
	},
	{
		"insert into t (a, b) values (1, 'x')",
		"INSERT INTO t (a, b) VALUES (1, 'x')",
	},
	{
		"INSERT INTO t VALUES (1), (2), (3)",
		"INSERT INTO t VALUES (1), (2), (3)",
	},
	{
		"update T set A = 1, B = B + 1 where id = 9",
		"UPDATE t SET a = 1, b = b + 1 WHERE id = 9",
	},
	{
		"delete from logs where ts < 100",
		"DELETE FROM logs WHERE ts < 100",
	},
	{
		"SELECT a FROM t WHERE x = -5",
		"SELECT a FROM t WHERE x = -5",
	},
	{
		"SELECT SUM(DISTINCT amount) FROM orders",
		"SELECT SUM(DISTINCT amount) FROM orders",
	},
	{
		"SELECT a FROM t WHERE b <> 3;",
		"SELECT a FROM t WHERE b != 3",
	},
	{
		"SELECT t.* FROM t",
		"SELECT t.* FROM t",
	},
	{
		"SELECT a FROM t WHERE flag = TRUE AND other = FALSE AND thing = NULL",
		"SELECT a FROM t WHERE ((flag = TRUE AND other = FALSE) AND thing = NULL)",
	},
	{
		"SELECT a FROM t WHERE x NOT IN (1, 2)",
		"SELECT a FROM t WHERE x NOT IN (1, 2)",
	},
	{
		"SELECT a FROM t WHERE x NOT BETWEEN 1 AND 2",
		"SELECT a FROM t WHERE x NOT BETWEEN 1 AND 2",
	},
	{
		"SELECT a FROM t WHERE x NOT LIKE 'a%'",
		"SELECT a FROM t WHERE NOT (x LIKE 'a%')",
	},
	{
		"SELECT a FROM t1, t2 WHERE t1.id = t2.id",
		"SELECT a FROM t1, t2 WHERE t1.id = t2.id",
	},
	{
		"SELECT eta FROM p WHERE stop = ? AND route = $2",
		"SELECT eta FROM p WHERE (stop = ? AND route = ?)",
	},
	{
		// A quoted identifier that is an ordinary word folds with its bare
		// spelling; one that would not lex back bare (a digit first, a space,
		// a keyword, a quote character) keeps its quotes, so that the
		// canonical form re-parses.
		"select \"Users\".`Name`, `My Col` x, \"*\" from `0` \"select\" where `a\"b`(\"1\") = ''",
		"SELECT users.name, `my col` AS x, \"*\" FROM `0` AS \"select\" WHERE `A\"B`(\"1\") = ''",
	},
	{
		// Negating a negative literal: "--0" would open a line comment.
		"SELECT - -0, -(-7), - + - 2.5 FROM t",
		"SELECT 0, 7, 2.5 FROM t",
	},
	{
		// A backslash in a string body is written back escaped; bare, it
		// would swallow the byte after it ('a\b' → 'ab') or the closing
		// quote.
		`SELECT 'a\\b', 'it\'s', 'tail\\' FROM t`,
		`SELECT 'a\\b', 'it''s', 'tail\\' FROM t`,
	},
	{
		// NOT brings its own parentheses; an arithmetic group under it must
		// not keep a second pair, or each re-parse would add one.
		"SELECT a FROM t WHERE NOT (n % 2)",
		"SELECT a FROM t WHERE NOT (n % 2)",
	},
	{
		// A predicate used as an operand keeps the parentheses it was
		// written with: predicates do not chain, so "0 > 0 = 0" is an error.
		"SELECT (0>0)=0, (a = 1) + 2 FROM t WHERE (x IS NULL) IN (TRUE) AND (NOT y) BETWEEN (a < b) AND 1",
		"SELECT (0 > 0) = 0, (a = 1) + 2 FROM t WHERE ((x IS NULL) IN (TRUE) AND (NOT (y)) BETWEEN (a < b) AND 1)",
	},
}

func TestParseRoundTrip(t *testing.T) {
	for _, c := range roundTrips {
		stmt, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := stmt.SQL(); got != c.want {
			t.Errorf("Parse(%q).SQL()\n got  %q\n want %q", c.in, got, c.want)
		}
	}
}

// TestCanonicalIdempotent: parsing canonical output reproduces it exactly.
func TestCanonicalIdempotent(t *testing.T) {
	for _, c := range roundTrips {
		stmt, err := Parse(c.in)
		if err != nil {
			continue
		}
		first := stmt.SQL()
		again, err := Parse(first)
		if err != nil {
			t.Errorf("re-parse of %q failed: %v", first, err)
			continue
		}
		if second := again.SQL(); second != first {
			t.Errorf("canonical form unstable:\n first  %q\n second %q", first, second)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"INSERT t VALUES (1)",
		"INSERT INTO t VALUES",
		"UPDATE t SET",
		"UPDATE t SET a 1",
		"DELETE t",
		"SELECT a FROM t GROUP x",
		"SELECT a FROM t trailing garbage tokens (",
		"SELECT a FROM t WHERE x NOT",
		"SELECT a FROM t WHERE x IN 1",
		"CREATE TABLE t (a int)",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}

func TestStatementTypes(t *testing.T) {
	cases := []struct {
		in   string
		want StatementType
	}{
		{"SELECT 1 FROM t", StmtSelect},
		{"INSERT INTO t VALUES (1)", StmtInsert},
		{"UPDATE t SET a = 1", StmtUpdate},
		{"DELETE FROM t", StmtDelete},
	}
	for _, c := range cases {
		stmt, err := Parse(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if stmt.Type() != c.want {
			t.Errorf("%q: type %v, want %v", c.in, stmt.Type(), c.want)
		}
	}
	if StmtSelect.String() != "SELECT" || StatementType(99).String() == "" {
		t.Error("StatementType.String misbehaves")
	}
}

func TestInsertBatchSize(t *testing.T) {
	stmt, err := Parse("INSERT INTO t (a) VALUES (1), (2), (3), (4)")
	if err != nil {
		t.Fatal(err)
	}
	if got := stmt.(*InsertStmt).BatchSize(); got != 4 {
		t.Fatalf("BatchSize = %d", got)
	}
}

func TestWalkExprsReplacement(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE x = 5 AND y = 'z'")
	if err != nil {
		t.Fatal(err)
	}
	var count int
	WalkExprs(stmt, func(e Expr) Expr {
		if _, ok := e.(*Literal); ok {
			count++
			return &Placeholder{Text: "?"}
		}
		return nil
	})
	if count != 2 {
		t.Fatalf("visited %d literals, want 2", count)
	}
	if got := stmt.SQL(); !strings.Contains(got, "x = ?") || !strings.Contains(got, "y = ?") {
		t.Fatalf("replacement failed: %q", got)
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("SELECT a FROM t WHERE !")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Fatalf("error lacks position: %v", err)
	}
}

func TestImplicitAliases(t *testing.T) {
	stmt := mustParse(t, "SELECT a value FROM t")
	sel := stmt.(*SelectStmt)
	if sel.Items[0].Alias != "value" {
		t.Fatalf("implicit select alias = %q", sel.Items[0].Alias)
	}
	stmt = mustParse(t, "SELECT a FROM tbl x WHERE x.a = 1")
	sel = stmt.(*SelectStmt)
	if sel.From[0].Alias != "x" {
		t.Fatalf("implicit table alias = %q", sel.From[0].Alias)
	}
}

func TestKeywordsNotEatenAsAliases(t *testing.T) {
	// WHERE/GROUP/ORDER after a table name must start their clauses, not
	// become aliases.
	stmt := mustParse(t, "SELECT a FROM t WHERE a = 1")
	if stmt.(*SelectStmt).From[0].Alias != "" {
		t.Fatal("WHERE consumed as alias")
	}
	stmt = mustParse(t, "SELECT a FROM t ORDER BY a")
	if stmt.(*SelectStmt).From[0].Alias != "" {
		t.Fatal("ORDER consumed as alias")
	}
}

func TestDeeplyNestedExpression(t *testing.T) {
	sql := "SELECT a FROM t WHERE ((((a = 1))))"
	stmt := mustParse(t, sql)
	if got := stmt.SQL(); got != "SELECT a FROM t WHERE a = 1" {
		t.Fatalf("nested parens: %q", got)
	}
}

func TestNumericEdgeLiterals(t *testing.T) {
	for _, in := range []string{
		"SELECT a FROM t WHERE x = 0.5",
		"SELECT a FROM t WHERE x = 1e9",
		"SELECT a FROM t WHERE x = 2.5E-3",
		"SELECT a FROM t WHERE x = -7",
	} {
		stmt := mustParse(t, in)
		again, err := Parse(stmt.SQL())
		if err != nil {
			t.Fatalf("%q: re-parse: %v", in, err)
		}
		if again.SQL() != stmt.SQL() {
			t.Fatalf("%q: unstable canonical form", in)
		}
	}
}

func TestLargeInList(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("SELECT a FROM t WHERE x IN (")
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%d", i)
	}
	sb.WriteString(")")
	stmt := mustParse(t, sb.String())
	in := stmt.(*SelectStmt).Where.(*InExpr)
	if len(in.Items) != 200 {
		t.Fatalf("IN items = %d", len(in.Items))
	}
}
