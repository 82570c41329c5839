package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// maxGrowthAllocs bounds the allocations of a month-plus of minute-by-minute
// recording, NewHistory included: a tier grows by a day of bins, then by an
// eighth of itself, so 31 days of minutes cost about twenty reallocations of
// the fine tier where an exact-length tier would cost 44,640.
const maxGrowthAllocs = 32

// growthBound is the capacity Add may reach when it grows a series of n bins
// to hold bin i.
func growthBound(s *Series, n, i int) int {
	return max(i+1, n+max(n/8, int(24*time.Hour/s.Interval)))
}

func TestRecordMinuteLoopAllocs(t *testing.T) {
	const minutes = 31 * 24 * 60
	allocs := testing.AllocsPerRun(1, func() {
		h := NewHistory(t0)
		for m := 0; m < minutes; m++ {
			h.Record(t0.Add(time.Duration(m)*Minute), 1)
		}
	})
	t.Logf("31 days of minutes: %v allocations", allocs)
	if allocs > maxGrowthAllocs {
		t.Errorf("31 days of minute-by-minute Record made %v allocations, want ≤ %d", allocs, maxGrowthAllocs)
	}
}

func TestRecordMinuteLoopWithHourlyCompactAllocs(t *testing.T) {
	const minutes = 40 * 24 * 60
	var compacted int
	allocs := testing.AllocsPerRun(1, func() {
		h := NewHistory(t0)
		compacted = 0
		for m := 0; m < minutes; m++ {
			at := t0.Add(time.Duration(m) * Minute)
			h.Record(at, 1)
			if m%60 == 59 {
				compacted += h.Compact(at)
			}
		}
	})
	t.Logf("40 days of minutes, compacted hourly: %v allocations, %d bins compacted", allocs, compacted)
	if compacted == 0 {
		t.Fatal("nothing compacted")
	}
	if allocs > maxGrowthAllocs {
		t.Errorf("40 days of minute-by-minute Record with an hourly Compact made %v allocations, want ≤ %d", allocs, maxGrowthAllocs)
	}
}

// TestAddCapacityBound drives random arrivals — in order, out of order, before
// the start, and in jumps of up to three days — and checks after every Add that
// the bins hold what a map of the arrivals says, that a tier reallocates only
// when the bin lies past its capacity, and that it never grows past the
// headroom rule.
func TestAddCapacityBound(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, interval := range []time.Duration{Minute, time.Hour, 7 * Minute, 48 * time.Hour} {
		for round := 0; round < 20; round++ {
			s := NewSeries(t0, interval)
			want := map[int]float64{}
			last := 0
			for op := 0; op < 300; op++ {
				var i int
				switch rng.Intn(4) {
				case 0:
					i = rng.Intn(last + 1)
				case 1:
					i = last + rng.Intn(3)
				case 2:
					i = last + rng.Intn(int(3*24*time.Hour/interval)+2)
				default:
					i = -rng.Intn(5)
				}
				at := t0.Add(time.Duration(i)*interval + time.Duration(rng.Int63n(int64(interval))))
				n, c := len(s.Data), cap(s.Data)
				var before *float64
				if c > 0 {
					before = &s.Data[:1][0]
				}
				s.Add(at, 1)
				i = max(i, 0)
				want[i]++
				last = max(last, i)
				if cap(s.Data) > c {
					if i < c {
						t.Fatalf("interval %v: Add of bin %d reallocated a series of capacity %d", interval, i, c)
					}
					if bound := growthBound(s, n, i); cap(s.Data) > bound {
						t.Fatalf("interval %v: growing %d bins to hold bin %d made capacity %d, want ≤ %d", interval, n, i, cap(s.Data), bound)
					}
				} else if before != &s.Data[0] {
					t.Fatalf("interval %v: Add of bin %d within capacity %d moved the bins", interval, i, c)
				}
				if len(s.Data) != last+1 {
					t.Fatalf("interval %v: len %d after bin %d, want %d", interval, len(s.Data), i, last+1)
				}
			}
			for j, v := range s.Data {
				if v != want[j] {
					t.Fatalf("interval %v: bin %d = %v, want %v", interval, j, v, want[j])
				}
			}
		}
	}
}

// TestRecordFarJumpAllocatesExactly pins the other side of the headroom rule:
// a line dated decades ahead of the rest grows the tier to exactly the bins it
// needs, as an exact-length tier did, never an eighth more.
func TestRecordFarJumpAllocatesExactly(t *testing.T) {
	start := time.Date(2098, time.June, 1, 0, 0, 0, 0, time.UTC)
	far := time.Date(2099, time.January, 1, 0, 0, 0, 0, time.UTC)
	want := int(far.Sub(start)/Minute) + 1
	for _, prior := range []int{0, 3 * 24 * 60} {
		h := NewHistory(start)
		for m := 0; m < prior; m++ {
			h.Record(start.Add(time.Duration(m)*Minute), 1)
		}
		h.Record(far, 1)
		if len(h.fine.Data) != want || cap(h.fine.Data) != want {
			t.Errorf("after %d minutes, a 2099 Record left len %d cap %d, want both %d",
				prior, len(h.fine.Data), cap(h.fine.Data), want)
		}
	}
}

// TestCompactInPlaceExposesZeros compacts a history whose fine tier has spare
// capacity, so the shift down leaves the old bins in that capacity, then
// records past the new end: every bin the reslice exposes must read zero
// through At and Window, and Window must still match the minute loop.
func TestCompactInPlaceExposesZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	h := NewHistory(t0)
	const days = 40
	for m := 0; m < days*24*60; m++ {
		h.Record(t0.Add(time.Duration(m)*Minute), float64(1+rng.Intn(9)))
	}
	now := t0.Add(days * 24 * time.Hour)
	c := cap(h.fine.Data)
	if h.Compact(now) == 0 {
		t.Fatal("nothing compacted")
	}
	if cap(h.fine.Data) != c {
		t.Fatalf("Compact changed the fine tier's capacity %d to %d", c, cap(h.fine.Data))
	}
	n := len(h.fine.Data)
	stale := 0
	for _, v := range h.fine.Data[n:cap(h.fine.Data)] {
		if v != 0 {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("no stale bins past the compacted tier; the test exercises nothing")
	}
	// A lone arrival a day on exposes a day of stale capacity.
	end := h.fine.TimeOf(n)
	late := end.Add(24*time.Hour + 17*Minute)
	h.Record(late, 3)
	for at := end; at.Before(late); at = at.Add(Minute) {
		if v := h.At(at); v != 0 {
			t.Fatalf("exposed bin %v reads %v, want 0", at, v)
		}
	}
	if v := h.At(late); v != 3 {
		t.Fatalf("At(late) = %v, want 3", v)
	}
	for _, step := range []time.Duration{Minute, 10 * Minute, time.Hour, 24 * time.Hour} {
		from := end.Add(-5 * time.Hour)
		k := int((late.Sub(from)+6*time.Hour)/step) + 1
		got, want := make([]float64, k), make([]float64, k)
		h.Window(got, from, step)
		naiveWindow(h, want, from, step)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("step %v: bin %d = %v, minute loop says %v", step, i, got[i], want[i])
			}
		}
	}
}
