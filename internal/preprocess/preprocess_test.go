package preprocess

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"qb5000/internal/sqlparse"
)

var base = time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC)

func TestTemplatizeStripsConstants(t *testing.T) {
	res, err := Templatize("SELECT a FROM t WHERE x = 42 AND name = 'bob'")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.SQL, "42") || strings.Contains(res.SQL, "bob") {
		t.Fatalf("constants leaked: %q", res.SQL)
	}
	if len(res.Params) != 2 {
		t.Fatalf("params = %v", res.Params)
	}
	if res.Params[0].Kind != "number" || res.Params[0].Value != "42" {
		t.Fatalf("param[0] = %+v", res.Params[0])
	}
	if res.Params[1].Kind != "string" || res.Params[1].Value != "bob" {
		t.Fatalf("param[1] = %+v", res.Params[1])
	}
}

func TestTemplatizeBatchInsert(t *testing.T) {
	res, err := Templatize("INSERT INTO t (a) VALUES (1), (2), (3)")
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchSize != 3 {
		t.Fatalf("BatchSize = %d", res.BatchSize)
	}
	if strings.Count(res.SQL, "(?)") != 1 {
		t.Fatalf("batched insert should collapse to one tuple: %q", res.SQL)
	}
}

func TestTemplatizeNormalizesFormatting(t *testing.T) {
	a, err := Templatize("select  A , b  from  T  where  X=1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Templatize("SELECT a, b FROM t WHERE x = 99")
	if err != nil {
		t.Fatal(err)
	}
	if a.SQL != b.SQL {
		t.Fatalf("normalization mismatch:\n%q\n%q", a.SQL, b.SQL)
	}
}

func TestTemplatizeError(t *testing.T) {
	if _, err := Templatize("TOTALLY NOT SQL"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestInstantiateRoundTrip(t *testing.T) {
	raw := "SELECT a FROM t WHERE x = 42 AND name = 'it''s'"
	res, err := Templatize(raw)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]string, len(res.Params))
	for i, p := range res.Params {
		vals[i] = p.SQL()
	}
	back := Instantiate(res.SQL, vals)
	// Re-templatizing the instantiated SQL must give the same template.
	res2, err := Templatize(back)
	if err != nil {
		t.Fatalf("instantiated SQL unparseable: %q: %v", back, err)
	}
	if res2.SQL != res.SQL {
		t.Fatalf("round trip changed template:\n%q\n%q", res.SQL, res2.SQL)
	}
	if res2.Params[0].Value != "42" || res2.Params[1].Value != "it's" {
		t.Fatalf("round trip params: %+v", res2.Params)
	}
}

func TestProcessFoldsEquivalentQueries(t *testing.T) {
	p := New(Options{Seed: 1})
	t1, err := p.Process("SELECT a FROM t WHERE x = 1", base)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := p.Process("select a from T where X = 999", base.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if t1.ID != t2.ID {
		t.Fatal("equivalent queries mapped to different templates")
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
	if t1.Count != 2 {
		t.Fatalf("Count = %d", t1.Count)
	}
	t3, err := p.Process("SELECT a, b FROM t WHERE x = 1", base)
	if err != nil {
		t.Fatal(err)
	}
	if t3.ID == t1.ID {
		t.Fatal("different projections folded together")
	}
}

func TestProcessRecordsHistory(t *testing.T) {
	p := New(Options{Seed: 1})
	tm, err := p.ProcessBatch("SELECT a FROM t WHERE x = 1", base, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := tm.History.At(base); got != 10 {
		t.Fatalf("history bin = %v", got)
	}
	if tm.Count != 10 {
		t.Fatalf("Count = %d", tm.Count)
	}
	st := p.Stats()
	if st.TotalQueries != 10 || st.ByType[sqlparse.StmtSelect] != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := p.ProcessBatch("SELECT a FROM t", base, 0); err == nil {
		t.Fatal("expected error for zero count")
	}
}

func TestProcessParseErrorCounted(t *testing.T) {
	p := New(Options{Seed: 1})
	if _, err := p.Process("garbage", base); err == nil {
		t.Fatal("expected error")
	}
	if p.Stats().ParseErrors != 1 {
		t.Fatalf("ParseErrors = %d", p.Stats().ParseErrors)
	}
}

func TestNewTemplateRatio(t *testing.T) {
	p := New(Options{Seed: 1})
	p.Process("SELECT a FROM t WHERE x = 1", base)
	p.Process("SELECT b FROM t WHERE x = 1", base)
	if got := p.NewTemplateRatio(); got != 1 {
		t.Fatalf("ratio = %v, want 1", got)
	}
	p.MarkNewTemplates()
	if got := p.NewTemplateRatio(); got != 0 {
		t.Fatalf("ratio after mark = %v", got)
	}
	p.Process("SELECT c FROM t WHERE x = 1", base)
	if got := p.NewTemplateRatio(); got < 0.3 || got > 0.4 {
		t.Fatalf("ratio = %v, want 1/3", got)
	}
}

func TestMaintainEvictsIdleTemplates(t *testing.T) {
	p := New(Options{Seed: 1, EvictAfter: 24 * time.Hour})
	p.Process("SELECT a FROM t WHERE x = 1", base)
	p.Process("SELECT b FROM t WHERE x = 1", base.Add(48*time.Hour))
	evicted := p.Maintain(base.Add(49 * time.Hour))
	if len(evicted) != 1 {
		t.Fatalf("evicted %d templates, want 1", len(evicted))
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d after eviction", p.Len())
	}
	if _, ok := p.Template(evicted[0].ID); ok {
		t.Fatal("evicted template still reachable")
	}
}

func TestTemplatesSortedByID(t *testing.T) {
	p := New(Options{Seed: 1})
	for i := 0; i < 5; i++ {
		p.Process(fmt.Sprintf("SELECT c%d FROM t WHERE x = 1", i), base)
	}
	ts := p.Templates()
	for i := 1; i < len(ts); i++ {
		if ts[i].ID <= ts[i-1].ID {
			t.Fatal("templates not sorted by ID")
		}
	}
}

func TestConcurrentProcess(t *testing.T) {
	p := New(Options{Seed: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sql := fmt.Sprintf("SELECT c%d FROM t WHERE x = %d", i%10, i)
				if _, err := p.Process(sql, base.Add(time.Duration(i)*time.Second)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if p.Len() != 10 {
		t.Fatalf("Len = %d, want 10", p.Len())
	}
	if got := p.Stats().TotalQueries; got != 1600 {
		t.Fatalf("TotalQueries = %d, want 1600", got)
	}
}

func TestReservoirCapacityAndUniformity(t *testing.T) {
	r := NewReservoir(10, 1)
	for i := 0; i < 1000; i++ {
		r.Observe([]string{fmt.Sprint(i)})
	}
	if r.Len() != 10 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Seen() != 1000 {
		t.Fatalf("Seen = %d", r.Seen())
	}
	// With 1000 observations, it would be wildly improbable for the sample
	// to contain only early items; check at least one is from the back half.
	fromBack := 0
	for _, s := range r.Sample() {
		var v int
		fmt.Sscan(s[0], &v)
		if v >= 500 {
			fromBack++
		}
	}
	if fromBack == 0 {
		t.Fatal("reservoir never replaced early items")
	}
}

func TestReservoirSmallStream(t *testing.T) {
	r := NewReservoir(5, 1)
	r.Observe([]string{"a"})
	r.Observe([]string{"b"})
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestInstantiateProperty(t *testing.T) {
	// Instantiate replaces exactly min(#placeholders, #params) markers.
	f := func(n uint8) bool {
		k := int(n % 6)
		tpl := strings.Repeat("? ", k)
		params := []string{"1", "2", "3"}
		out := Instantiate(tpl, params)
		remaining := strings.Count(out, "?")
		want := k - len(params)
		if want < 0 {
			want = 0
		}
		return remaining == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatchedInsertTupleTracking(t *testing.T) {
	p := New(Options{Seed: 1})
	tm, err := p.Process("INSERT INTO t (a) VALUES (1), (2), (3)", base)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Count != 1 || tm.Tuples != 3 {
		t.Fatalf("Count=%d Tuples=%d, want 1/3", tm.Count, tm.Tuples)
	}
	// A replayed batch of 4 identical statements carries 4x the tuples.
	if _, err := p.ProcessBatch("INSERT INTO t (a) VALUES (9), (8), (7)", base, 4); err != nil {
		t.Fatal(err)
	}
	if tm.Count != 5 || tm.Tuples != 15 {
		t.Fatalf("Count=%d Tuples=%d, want 5/15", tm.Count, tm.Tuples)
	}
	// Non-INSERT templates count one tuple per statement.
	sel, err := p.Process("SELECT a FROM t WHERE x = 1", base)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Tuples != sel.Count {
		t.Fatalf("SELECT Tuples=%d Count=%d", sel.Tuples, sel.Count)
	}
}

func TestParamSQLQuoting(t *testing.T) {
	p := Param{Kind: "string", Value: "o'brien"}
	if got := p.SQL(); got != "'o''brien'" {
		t.Fatalf("SQL() = %q", got)
	}
	q := Param{Kind: "number", Value: "42"}
	if q.SQL() != "42" {
		t.Fatalf("SQL() = %q", q.SQL())
	}
	// A backslash is escaped too, so the rendered literal parses back to the
	// value it came from — it used to swallow the byte after it.
	for _, v := range []string{`a\b`, `tail\`, `\'`, "plain"} {
		res, err := Templatize("SELECT a FROM t WHERE s = " + Param{Kind: "string", Value: v}.SQL())
		if err != nil {
			t.Fatalf("%q: rendered literal does not parse: %v", v, err)
		}
		if len(res.Params) != 1 || res.Params[0].Value != v {
			t.Fatalf("%q came back as %+v", v, res.Params)
		}
	}
}
