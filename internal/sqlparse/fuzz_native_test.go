// This file lives in the external sqlparse_test package (not sqlparse) so it
// can import internal/preprocess for the fingerprint-cache equivalence
// invariant without an import cycle; the CI fuzz smoke's `-fuzz FuzzParse`
// must match exactly one target, so the cache check rides inside FuzzParse
// rather than being a second Fuzz function.
package sqlparse_test

import (
	"bytes"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"qb5000/internal/preprocess"
	"qb5000/internal/sqlparse"
)

// fuzzSeeds lists the template shapes the paper's traces exercise (§4):
// IN-lists, quoted strings with escapes, comments, prepared-statement
// parameters, joins, and the update/delete/insert families. The same seeds
// back the checked-in corpus under testdata/fuzz/FuzzParse.
var fuzzSeeds = []string{
	"SELECT a, b FROM t WHERE x = 1",
	"SELECT * FROM orders WHERE id IN (1, 2, 3) AND status = 'open'",
	"SELECT name FROM users WHERE note = 'it''s quoted' OR note = 'x'",
	"SELECT a FROM t -- trailing comment\nWHERE x = 2",
	"SELECT a FROM t /* block\ncomment */ WHERE x = 3",
	"SELECT c FROM t WHERE id = $1 AND ts < $2",
	"SELECT c FROM t WHERE id = ? AND v BETWEEN ? AND ?",
	"SELECT o.id, c.name FROM orders o JOIN customers c ON o.cid = c.id WHERE o.total > 100 ORDER BY o.id LIMIT 10",
	"SELECT COUNT(*) FROM t GROUP BY region HAVING COUNT(*) > 5",
	"SELECT a FROM t WHERE x IS NOT NULL AND NOT (y = 1 OR z IN ('a', 'b'))",
	"INSERT INTO t (a, b, c) VALUES (1, 'two', $3)",
	"UPDATE accounts SET balance = balance - 10 WHERE id = $1",
	"DELETE FROM sessions WHERE expires < ?",
	"select   A ,B from T where X=1",
	"SELECT a FROM t WHERE s LIKE 'pre%'",
	// MOOC workload-evolution shapes (§7.1): the templates the semester
	// phase shift introduces, exercising multi-column inserts, join+group,
	// descending order with limit, counting joins, and LIKE search.
	"INSERT INTO content (course_id, unit, title, body, rev2) VALUES (101, 3, 'unit', 'body', 7)",
	"SELECT e.user_id, COUNT(*) FROM enrollments e JOIN submissions s ON e.user_id = s.user_id WHERE e.course_id = 101 AND e.cohort = 4 GROUP BY e.user_id",
	"SELECT t.id, t.title, t.replies FROM threads t WHERE t.course_id = 101 ORDER BY t.updated_at DESC LIMIT 25",
	"SELECT COUNT(*) FROM posts p JOIN threads t ON p.thread_id = t.id WHERE t.course_id = 101 AND p.created_at > 1525132800",
	"SELECT t.id, t.title FROM threads t WHERE t.course_id = 101 AND t.title LIKE 'q7'",
	// Shapes chosen to stress the fingerprint-cache equivalence check:
	// batched INSERT (batch size rides in the cache entry), string escapes
	// (parameter rendering must match re-parsing), and a zero-parameter
	// statement (nil vals on the hit path).
	"INSERT INTO points (x, y) VALUES (1, 2), (3, 4), (5, 6)",
	"UPDATE notes SET body = 'it''s done\\now' WHERE id = 9",
	"SELECT a, b FROM t",
	// Literal-only shapes whose rendering once failed to re-parse: a
	// doubled negation ("--0" opens a comment) and a backslash in a string
	// body (unescaped, it swallowed the byte after it).
	"SELECT - -0",
	"SELECT 'a\\\\b'",
}

// FuzzParse drives the parser with arbitrary byte strings and checks the
// normalization invariants the Pre-Processor depends on: rendering a parsed
// statement must be a fixed point of Parse∘SQL, the semantic key must be
// stable across that round trip (otherwise identical queries would fold into
// different templates), and ingesting through the fingerprint cache must
// leave the catalog byte-identical to ingesting without it — including under
// eviction churn in both the cache and the catalog.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := sqlparse.Parse(input)
		if err != nil || stmt == nil {
			return // rejecting malformed input is fine; crashing is not
		}
		canon := stmt.SQL()
		if !utf8.ValidString(canon) && utf8.ValidString(input) {
			t.Fatalf("canonical form is not valid UTF-8: %q -> %q", input, canon)
		}
		stmt2, err := sqlparse.Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %q -> %q: %v", input, canon, err)
		}
		canon2 := stmt2.SQL()
		if canon2 != canon {
			t.Fatalf("canonical form is not a fixed point:\n input: %q\n pass1: %q\n pass2: %q", input, canon, canon2)
		}
		k1 := sqlparse.ExtractFeatures(stmt).SemanticKey()
		k2 := sqlparse.ExtractFeatures(stmt2).SemanticKey()
		if k1 != k2 {
			t.Fatalf("semantic key unstable across round trip:\n input: %q\n key1: %q\n key2: %q", input, k1, k2)
		}
		if strings.TrimSpace(canon) == "" {
			t.Fatalf("parsed statement rendered empty: %q", input)
		}
		checkCacheEquivalence(t, input)
	})
}

// checkCacheEquivalence replays one deterministic observation sequence built
// around the fuzz input into two single-stripe catalogs — fingerprint cache
// disabled vs. a deliberately tiny (2-entry) cache — and requires
// byte-identical snapshots. The sequence repeats the input (cache hits),
// interleaves other templates (clock-hand eviction churn in the 2-entry
// cache), and runs a Maintain that evicts every template mid-sequence (so a
// stale cache entry must re-templatize, not resurrect its dead ID).
func checkCacheEquivalence(t *testing.T, input string) {
	mk := func(cacheSize int) *preprocess.Preprocessor {
		return preprocess.New(preprocess.Options{
			Seed:                 1,
			Shards:               1,
			EvictAfter:           time.Hour,
			FingerprintCacheSize: cacheSize,
		})
	}
	plain, cached := mk(0), mk(2)

	t0 := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	seq := []string{input, fuzzSeeds[0], input, fuzzSeeds[1], fuzzSeeds[2], input}
	feed := func(base time.Time) {
		for i, q := range seq {
			at := base.Add(time.Duration(i) * time.Second)
			_, errP := plain.ProcessBatch(q, at, 1)
			_, errC := cached.ProcessBatch(q, at, 1)
			if (errP == nil) != (errC == nil) {
				t.Fatalf("cache changed accept/reject for %q: plain=%v cached=%v", q, errP, errC)
			}
		}
	}
	feed(t0)
	// Evict everything: EvictAfter is 1h and the jump is 2 days, so every
	// template dies and every cache entry goes stale.
	plain.Maintain(t0.Add(48 * time.Hour))
	cached.Maintain(t0.Add(48 * time.Hour))
	// Re-feed after the purge: the cached side must re-templatize (fresh
	// IDs), not fold into evicted templates.
	feed(t0.Add(48 * time.Hour))

	var bp, bc bytes.Buffer
	if err := plain.Snapshot(&bp); err != nil {
		t.Fatalf("plain snapshot: %v", err)
	}
	if err := cached.Snapshot(&bc); err != nil {
		t.Fatalf("cached snapshot: %v", err)
	}
	if !bytes.Equal(bp.Bytes(), bc.Bytes()) {
		t.Fatalf("fingerprint cache changed catalog state for input %q:\nplain %d bytes, cached %d bytes", input, bp.Len(), bc.Len())
	}
}
