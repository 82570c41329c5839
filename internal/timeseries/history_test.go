package timeseries

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestHistoryRecordAndAt(t *testing.T) {
	h := NewHistory(t0)
	h.Record(t0.Add(30*time.Minute), 3)
	if got := h.At(t0.Add(30 * time.Minute)); got != 3 {
		t.Fatalf("At = %v", got)
	}
	if !h.Start().Equal(t0) {
		t.Fatalf("Start = %v, want %v", h.Start(), t0)
	}
}

func TestHistoryCompactPreservesTotal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistory(t0)
		var total float64
		// Spread arrivals over 60 days.
		for i := 0; i < 300; i++ {
			at := t0.Add(time.Duration(rng.Intn(60*24*60)) * time.Minute)
			v := float64(1 + rng.Intn(5))
			h.Record(at, v)
			total += v
		}
		now := t0.Add(60 * 24 * time.Hour)
		h.Compact(now)
		return almostEq(h.fine.Total()+h.coarse.Total(), total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func TestHistoryCompactMovesOldData(t *testing.T) {
	h := NewHistory(t0)
	h.Record(t0, 10)                     // old
	h.Record(t0.Add(45*24*time.Hour), 1) // recent
	now := t0.Add(45 * 24 * time.Hour)
	moved := h.Compact(now)
	if moved == 0 {
		t.Fatal("expected fine bins to be released")
	}
	if h.coarse.Total() != 10 {
		t.Fatalf("coarse total = %v, want 10", h.coarse.Total())
	}
	// The old arrival is now readable from the coarse tier (averaged per
	// minute within its hour).
	if got := h.At(t0); got != 10.0/60 {
		t.Fatalf("At old = %v, want %v", got, 10.0/60)
	}
	// Compacting again right away is a no-op.
	if h.Compact(now) != 0 {
		t.Fatal("second compact should move nothing")
	}
}

func TestHistoryBytesGrowsAndShrinks(t *testing.T) {
	h := NewHistory(t0)
	for d := 0; d < 50; d++ {
		h.Record(t0.Add(time.Duration(d)*24*time.Hour), 1)
	}
	before := h.Bytes()
	h.Compact(t0.Add(50 * 24 * time.Hour))
	after := h.Bytes()
	if after >= before {
		t.Fatalf("compaction did not shrink storage: %d -> %d", before, after)
	}
}

func TestLogExpRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		if v < 0 || v > 1e12 {
			v = 0
		}
		back := Expm1Clamped(Log1pClamped(v))
		d := back - v
		if d < 0 {
			d = -d
		}
		return d <= 1e-6*(1+v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Negative inputs clamp to zero.
	if Log1pClamped(-5) != 0 {
		t.Fatal("negative input should clamp")
	}
	if Expm1Clamped(-100) != 0 {
		t.Fatal("negative output should clamp")
	}
}
