package timeseries

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC)

func TestAddAndAt(t *testing.T) {
	s := NewSeries(t0, time.Minute)
	s.Add(t0, 2)
	s.Add(t0.Add(90*time.Second), 3) // lands in bin 1
	s.Add(t0.Add(5*time.Minute), 1)
	if got := s.At(t0); got != 2 {
		t.Fatalf("bin 0 = %v", got)
	}
	if got := s.At(t0.Add(time.Minute)); got != 3 {
		t.Fatalf("bin 1 = %v", got)
	}
	if got := s.At(t0.Add(4 * time.Minute)); got != 0 {
		t.Fatalf("empty bin = %v", got)
	}
	if got := s.At(t0.Add(-time.Hour)); got != 0 {
		t.Fatalf("before start = %v", got)
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
}

func TestAddBeforeStartFoldsIntoFirstBin(t *testing.T) {
	s := NewSeries(t0, time.Minute)
	s.Add(t0.Add(-time.Hour), 5)
	if got := s.At(t0); got != 5 {
		t.Fatalf("early arrival lost: %v", got)
	}
}

func TestAggregatePreservesTotal(t *testing.T) {
	f := func(vals [50]uint8, factor uint8) bool {
		fac := int(factor)%7 + 1
		s := NewSeries(t0, time.Minute)
		for i, v := range vals {
			s.Add(t0.Add(time.Duration(i)*time.Minute), float64(v))
		}
		agg := s.Aggregate(fac)
		return agg.Total() == s.Total() && agg.Interval == time.Duration(fac)*time.Minute
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlice(t *testing.T) {
	s := NewSeries(t0, time.Minute)
	for i := 0; i < 10; i++ {
		s.Add(t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	got := s.Slice(t0.Add(2*time.Minute), t0.Add(5*time.Minute))
	want := []float64{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Slice = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
	if s.Slice(t0, t0) != nil {
		t.Fatal("empty slice should be nil")
	}
}

func TestScale(t *testing.T) {
	s := NewSeries(t0, time.Minute)
	s.Add(t0, 2)
	s.Add(t0.Add(time.Minute), 4)
	s.Scale(0.5)
	if s.Total() != 3 {
		t.Fatalf("Total = %v", s.Total())
	}
}

func TestSampleTimestampsSortedAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	from, to := t0, t0.Add(24*time.Hour)
	stamps := SampleTimestamps(rng, from, to, 200)
	if len(stamps) != 200 {
		t.Fatalf("got %d stamps", len(stamps))
	}
	for i, ts := range stamps {
		if ts.Before(from) || !ts.Before(to) {
			t.Fatalf("stamp %v out of range", ts)
		}
		if i > 0 && ts.Before(stamps[i-1]) {
			t.Fatal("stamps not sorted")
		}
	}
	if SampleTimestamps(rng, to, from, 10) != nil {
		t.Fatal("inverted range should yield nil")
	}
}
