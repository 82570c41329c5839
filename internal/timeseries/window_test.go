package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// naiveWindow is the reference Window is held to: the minute-by-minute At
// loop cluster.Volume, cluster.CenterSeries and FullHourly's callers spelled
// before the window read replaced them. It walks time.Time values and asks
// At for every minute; the one thing it adds is the rule At cannot express,
// that a compacted hour read whole is its stored count rather than sixty
// per-minute averages.
func naiveWindow(h *History, dst []float64, from time.Time, step time.Duration) {
	for i := range dst {
		lo := from.Add(time.Duration(i) * step)
		hi := lo.Add(step)
		var sum float64
		for t := lo; t.Before(hi); {
			if count, next, ok := compactedHourFrom(h, t); ok && !next.After(hi) {
				sum += count
				t = next
				continue
			}
			sum += h.At(t)
			t = t.Add(Minute)
		}
		dst[i] += sum
	}
}

// compactedHourFrom reports whether t is the first minute sample of a
// compacted hour, and if so the hour's stored count and the first sample
// past the part of the hour the coarse tier holds.
func compactedHourFrom(h *History, t time.Time) (count float64, next time.Time, ok bool) {
	if t.Before(h.coarse.Start) || !t.Before(h.fine.Start) {
		return 0, time.Time{}, false
	}
	hour := t.Truncate(h.coarse.Interval)
	if !t.Add(-Minute).Before(hour) {
		return 0, time.Time{}, false
	}
	end := hour.Add(h.coarse.Interval)
	if end.After(h.fine.Start) {
		end = h.fine.Start
	}
	for next = t; next.Before(end); next = next.Add(Minute) {
	}
	return h.coarse.At(t), next, true
}

// TestWindowMatchesMinuteLoop drives Window and the reference over random
// histories — compacted and not, starting on and off the hour — with windows
// that begin before the first record, straddle the compaction boundary, run
// past the last record and are not aligned to the step, a minute or the
// history's start.
func TestWindowMatchesMinuteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 200; round++ {
		start := t0.Add(time.Duration(rng.Intn(180)) * Minute)
		h := NewHistory(start)
		spanDays := 1 + rng.Intn(50)
		span := spanDays * 24 * 60
		for n := 20 + rng.Intn(400); n > 0; n-- {
			at := start.Add(time.Duration(rng.Intn(span))*Minute + time.Duration(rng.Intn(60))*time.Second)
			h.Record(at, float64(1+rng.Intn(9)))
		}
		last := start.Add(time.Duration(span) * Minute)
		compacted := rng.Intn(3) > 0 && h.Compact(last) > 0
		boundary := h.fine.Start

		for _, stepMin := range []int{1, 10, 60, 120} {
			step := time.Duration(stepMin) * Minute
			froms := []time.Time{
				start.Add(-3 * time.Hour),                        // before the first record
				start.Add(-90 * time.Minute).Truncate(time.Hour), // hour-aligned, before it
				boundary.Add(-5 * time.Hour),                     // straddles the tier boundary
				boundary.Add(-5*time.Hour - 7*Minute),            // the same, off the step
				boundary.Add(-2*time.Hour + 30*time.Second),      // off the minute
				last.Add(-4 * time.Hour),                         // runs past the last record
			}
			for _, from := range froms {
				n := 12*60/stepMin + rng.Intn(5)
				got, want := make([]float64, n), make([]float64, n)
				for i := range got {
					got[i] = float64(rng.Intn(3))
					want[i] = got[i]
				}
				h.Window(got, from, step)
				naiveWindow(h, want, from, step)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("round %d (start %v, compacted %v) step %dm from %v: bin %d = %v, minute loop says %v",
							round, start, compacted, stepMin, from, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestWindowReadsCompactedHours pins what the tiers mean to a reader: an
// hour-aligned read of a compacted hour is the stored count, a partial read
// is At's per-minute average, and nothing is read before Start.
func TestWindowReadsCompactedHours(t *testing.T) {
	h := NewHistory(t0)
	// 90 arrivals in hour 0, 7 in hour 1, then one far enough ahead that
	// Compact moves both hours into the coarse tier.
	for i := 0; i < 90; i++ {
		h.Record(t0.Add(time.Duration(i%60)*Minute), 1)
	}
	h.Record(t0.Add(61*Minute), 7)
	recent := t0.Add(40 * 24 * time.Hour)
	h.Record(recent, 5)
	if h.Compact(recent) == 0 {
		t.Fatal("nothing compacted")
	}
	if !h.Start().Equal(t0) {
		t.Fatalf("Start = %v, want %v", h.Start(), t0)
	}
	seventh := 7.0 / 60
	cases := []struct {
		name string
		from time.Time
		step time.Duration
		want []float64
	}{
		{"hour-aligned compacted hours", t0, time.Hour, []float64{90, 7, 0}},
		{"two compacted hours in one bin", t0, 2 * time.Hour, []float64{97}},
		{"starts an hour before Start", t0.Add(-time.Hour), time.Hour, []float64{0, 90, 7}},
		{"ten minutes of a compacted hour", t0.Add(time.Hour), 10 * Minute,
			[]float64{seventh + seventh + seventh + seventh + seventh + seventh + seventh + seventh + seventh + seventh}},
		{"recent hour from the fine tier", recent, time.Hour, []float64{5}},
		{"past the last record", recent.Add(time.Hour), time.Hour, []float64{0, 0}},
	}
	for _, tc := range cases {
		got := make([]float64, len(tc.want))
		h.Window(got, tc.from, tc.step)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(tc.want[i]) {
				t.Errorf("%s: bin %d = %v, want %v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
	// At agrees: the minute before Start is empty, not hour 0's average.
	if got := h.At(t0.Add(-Minute)); got != 0 {
		t.Errorf("At before Start = %v, want 0", got)
	}
	// Window accumulates into dst rather than overwriting it.
	acc := []float64{1}
	h.Window(acc, t0, time.Hour)
	if acc[0] != 91 {
		t.Errorf("accumulated bin = %v, want 91", acc[0])
	}
}

func TestWindowRejectsPartialMinuteStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a 90 s step was accepted")
		}
	}()
	NewHistory(t0).Window(make([]float64, 1), t0, 90*time.Second)
}
