package qb5000

import (
	"fmt"
	"testing"
	"time"
)

// TestObserveHitPathAllocs is the allocation gate for the fingerprint-cache
// fast path: an Observe whose raw SQL is already cached must not allocate.
// The budget is ≤1 alloc/op only to absorb one-off runtime effects
// (AllocsPerRun rounds up); the steady state is zero. Guarded by CI's test
// job — a regression here means the zero-alloc observe path grew an
// allocation somewhere between Observe and the stripe fold.
func TestObserveHitPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f := New(Config{Seed: 1, FingerprintCacheSize: 64})
	// No literals, so there is no parameter vector and the reservoir stays
	// untouched; a fixed timestamp keeps History.Record on one bucket.
	const sql = "SELECT a, b FROM t"
	at := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := f.Observe(sql, at); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := f.ObserveBatch(sql, at, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("cache-hit Observe allocated %.1f allocs/op, want ≤1", allocs)
	}
	// The batch entry point is the same fold in a loop: a whole all-hit batch
	// gets the same budget, not one allocation per line or per stripe.
	batch := make([]Observation, 256)
	for i := range batch {
		batch[i] = Observation{SQL: sql, At: at, Count: 1}
	}
	allocs = testing.AllocsPerRun(100, func() {
		if res := f.ObserveMany(batch); res.Rejected != 0 {
			t.Fatalf("ObserveMany rejected %d", res.Rejected)
		}
	})
	if allocs > 1 {
		t.Errorf("all-hit ObserveMany allocated %.1f allocs per 256-line batch, want ≤1", allocs)
	}
	if hits := f.Stats().CacheHits; hits == 0 {
		t.Fatal("expected cache hits, got none — the test did not exercise the fast path")
	}
}

// TestObserveMissPathAllocs bounds the cache-enabled miss path. The miss
// still lexes into pooled token scratch and parses, so the remaining
// allocations are AST nodes, the rendered parameter vector, and the cache
// entry; the fixed budget catches accidental regressions (e.g. the lexer
// losing its pooled buffer or keyword interning).
func TestObserveMissPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f := New(Config{Seed: 1, FingerprintCacheSize: 8})
	at := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	// Distinct raw text each run (far more than 8 cache entries) so every
	// Observe misses; pre-rendered so Sprintf is outside the measured func.
	queries := make([]string, 4096)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT a, b FROM t WHERE x = %d AND y = 2", i)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if err := f.ObserveBatch(queries[i%len(queries)], at, 1); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// Measured ~45 allocs/op (AST + params + cache entry); 60 leaves slack
	// for runtime variation without masking a real regression.
	if allocs > 60 {
		t.Errorf("cache-miss Observe allocated %.1f allocs/op, want ≤60", allocs)
	}
}
