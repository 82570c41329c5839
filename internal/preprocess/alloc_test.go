package preprocess

import (
	"testing"
	"time"
)

// TestHitPathAllocs is the allocation gate of the fingerprint-cache hit path
// (foldFingerprint → foldExisting → recordVals), one case per branch of the
// fold. Each case folds whole 256-line all-hit batches through ProcessMany,
// at a fixed timestamp so History.Record stays on one bin:
//
//   - no literals: no parameter vector, nothing to allocate;
//   - a count above one: the extra History.Record of the batched arrivals;
//   - literals: the cached vals reach the reservoir, which copies a vector
//     only when it keeps it (probability capacity/seen). Over the measured
//     100 batches that averages about 2 copies a batch; the bound leaves room
//     for the collector, not for one allocation per line.
func TestHitPathAllocs(t *testing.T) {
	at := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name  string
		sql   string
		count int64
		max   float64
	}{
		{"no literals", "SELECT a, b FROM t", 1, 0},
		{"count above one", "SELECT a, b FROM t", 5, 0},
		{"literals", "SELECT a, b FROM t WHERE x = 42 AND name = 'forty-two'", 1, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(Options{Seed: 1, FingerprintCacheSize: 64})
			batch := make([]Observation, 256)
			for i := range batch {
				batch[i] = Observation{SQL: tc.sql, At: at, Count: tc.count}
			}
			// The one miss parses and caches; every line after it hits.
			if _, rejected := p.ProcessMany(batch[:1]); rejected != 0 {
				t.Fatalf("%q rejected", tc.sql)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, rejected := p.ProcessMany(batch); rejected != 0 {
					t.Fatalf("ProcessMany rejected %d", rejected)
				}
			})
			t.Logf("%.0f allocations per 256-line batch", allocs)
			if allocs > tc.max {
				t.Errorf("all-hit batch allocated %.0f times per 256 lines, want ≤ %.0f", allocs, tc.max)
			}
			if st := p.Stats(); st.CacheMisses != 1 || st.CacheHits != 256*101 {
				t.Errorf("hits/misses = %d/%d, want %d/1: the batches did not all take the hit path", st.CacheHits, st.CacheMisses, 256*101)
			}
		})
	}
}
