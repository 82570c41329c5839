package experiments

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"qb5000/internal/workload"
)

// TestAutoIndexSamplesDeterministic: the auto-index experiment's query
// samples draw only from the generator they are handed, so two generators
// with the same seed give the same queries. A draw from the global
// math/rand source instead (historicalSample's instant, sampleQueries'
// shape pick) makes the two samples differ.
func TestAutoIndexSamplesDeterministic(t *testing.T) {
	wl := workload.BusTracker(3)
	seeded := func() *rand.Rand { return rand.New(rand.NewSource(5)) }

	at := wl.Start.Add(9 * time.Hour)
	a, b := sampleQueries(wl, at, 64, seeded()), sampleQueries(wl, at, 64, seeded())
	if len(a) == 0 || !slices.Equal(a, b) {
		t.Fatalf("sampleQueries: same seed, different samples:\n%q\n%q", a, b)
	}

	sqls := func() []string {
		var out []string
		for _, q := range historicalSample(wl, wl.Start, wl.Start.Add(7*24*time.Hour), 64, seeded()) {
			out = append(out, q.SQL)
		}
		return out
	}
	if c, d := sqls(), sqls(); !slices.Equal(c, d) {
		t.Fatalf("historicalSample: same seed, different samples:\n%q\n%q", c, d)
	}
}
