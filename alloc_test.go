package qb5000

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"qb5000/internal/core"
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

// TestSaveLoadAllocs bounds the bytes a snapshot round trip allocates on the
// 1,000-member benchmark catalog, as multiples of the bins themselves
// (Preprocessor.HistoryBytes, ~92 MB). Save holds one encoded copy of the
// bins (1.0 ×) plus the small gob header; Load holds the verified frame body
// (read in a few growing steps, ~1.15 ×) plus the decoded bins (1.0 ×). The
// envelope → gob DTO → nested MarshalBinary stack this replaced measured
// 13.1 × and 12.8 ×.
func TestSaveLoadAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("primes 1,000 templates × 8 days and runs a maintenance pass")
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ctl, err := forecastBenchState()
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := ctl.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	bins := float64(ctl.Preprocessor().HistoryBytes())
	save := totalAlloc(func() { err = ctl.Snapshot(io.Discard) }) / bins
	if err != nil {
		t.Fatal(err)
	}
	load := totalAlloc(func() { _, err = core.RestoreController(forecastBenchConfig, bytes.NewReader(snap.Bytes())) }) / bins
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bins %.1f MB: Save allocates %.2f ×, Load %.2f ×", bins/1e6, save, load)
	if save > 1.5 {
		t.Errorf("Save allocated %.2f × the bins, want ≤ 1.5 ×", save)
	}
	if load > 4 {
		t.Errorf("Load allocated %.2f × the bins, want ≤ 4 ×", load)
	}
}

// TestForecastAllocs bounds what one Controller.Forecast allocates on the
// 1,000-member benchmark catalog: the lag × clusters input, one accumulator,
// the model's prediction and the result slice — nothing that grows with the
// members or their histories. The clone-per-call path this replaced
// allocated 106 MB in 9,048 objects.
func TestForecastAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("primes 1,000 templates × 8 days and runs a maintenance pass")
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ctl, err := forecastBenchState()
	if err != nil {
		t.Fatal(err)
	}
	// runtime.MemStats, not totalAlloc: the runtime/metrics counter is
	// flushed per span and reads 0 for a couple of kilobytes.
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if forecastSink, err = ctl.Forecast(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	objects := (after.Mallocs - before.Mallocs) / runs
	t.Logf("one Forecast allocates %d B in %d objects", bytes, objects)
	if bytes > 64<<10 {
		t.Errorf("Forecast allocated %d B, want ≤ 64 KB", bytes)
	}
	if objects > 64 {
		t.Errorf("Forecast allocated %d objects, want ≤ 64", objects)
	}
}

// totalAlloc is the number of heap bytes the process allocates while fn runs,
// read from runtime/metrics so that a fuzz target can afford it per input.
func totalAlloc(fn func()) float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	fn()
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64() - before)
}
