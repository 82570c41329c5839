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
// AllocsPerRun divides the total by the runs and rounds down, so a single
// Observe must read 0: one allocation per call would read 1. A whole batch
// gets a budget of one allocation per 256 lines. A regression here means the
// zero-alloc observe path grew an allocation somewhere between Observe and
// the stripe fold; internal/preprocess's TestHitPathAllocs covers the fold's
// other branches (literals, counts above one).
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
	if allocs > 0 {
		t.Errorf("cache-hit Observe allocated %.1f allocs/op, want 0", allocs)
	}
	// The batch entry point is the same fold in a loop: a whole all-hit batch
	// gets at most one allocation, not one per line or per stripe.
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

// TestObserveTraceAllocs bounds what the /observe serving form costs per
// line: ObserveTrace over a trace body whose every line hits the fingerprint
// cache. tracefile.Read copies each line out of the scanner's buffer
// (Scanner.Text), and that string is the one allocation a line may make;
// the scanner and its buffer are per call, so the per-line cost is the
// difference between a 257-line and a 1-line body over 256 lines.
func TestObserveTraceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f := New(Config{Seed: 1, FingerprintCacheSize: 64})
	const line = "2018-01-01T00:00:00Z\tSELECT a, b FROM t\n"
	one := []byte(line)
	many := bytes.Repeat(one, 257)
	var r bytes.Reader
	observe := func(body []byte) float64 {
		return testing.AllocsPerRun(100, func() {
			r.Reset(body)
			if res, err := f.ObserveTrace(&r); err != nil || res.Rejected != 0 {
				t.Fatalf("ObserveTrace: %+v, %v", res, err)
			}
		})
	}
	observe(one) // the one miss parses and caches
	perLine := (observe(many) - observe(one)) / 256
	t.Logf("%.2f allocations per trace line", perLine)
	if perLine > 1 {
		t.Errorf("ObserveTrace allocated %.2f times per all-hit line, want ≤ 1 (the line's string)", perLine)
	}
	if st := f.Stats(); st.CacheMisses != 1 {
		t.Errorf("%d cache misses, want 1: the lines did not all take the hit path", st.CacheMisses)
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
// bins — zero runs and varint counts, two bytes an hour of hourly arrivals
// (0.08 ×) — plus the small gob header; Load holds the verified frame body,
// about as small, plus the decoded bins (1.0 ×), 1.25 × in all.
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
	if save > 0.25 {
		t.Errorf("Save allocated %.2f × the bins, want ≤ 0.25 ×", save)
	}
	if load > 1.5 {
		t.Errorf("Load allocated %.2f × the bins, want ≤ 1.5 ×", load)
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
