package timeseries

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
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

// randomHistory records n arrivals in random order over `days` days and,
// when compact is set, compacts at the end of them, so both tiers hold bins
// whenever days exceeds the fine window.
func randomHistory(rng *rand.Rand, n, days int, compact bool) *History {
	h := NewHistory(t0.Add(time.Duration(rng.Intn(180)) * time.Minute))
	for i := 0; i < n; i++ {
		h.Record(t0.Add(time.Duration(rng.Intn(days*24*60))*time.Minute), float64(1+rng.Intn(5)))
	}
	if compact {
		h.Compact(t0.Add(time.Duration(days) * 24 * time.Hour))
	}
	return h
}

// TestHistoryBinaryRoundTrip is the codec's one property: over random
// histories — arrivals out of order, compacted and not, with bytes before and
// after them in the buffer — decode(encode(h)) reads identically through
// Window and At, consumes exactly its own bytes, re-encodes to the same
// bytes, and keeps recording and compacting.
func TestHistoryBinaryRoundTrip(t *testing.T) {
	f := func(seed int64, compact bool) bool {
		rng := rand.New(rand.NewSource(seed))
		days := 1 + rng.Intn(70)
		h := randomHistory(rng, rng.Intn(300), days, compact)
		enc := h.AppendBinary([]byte("head"))
		if len(enc) != 4+32+h.Bytes() {
			t.Logf("encoded %d bytes, want %d", len(enc), 4+32+h.Bytes())
			return false
		}
		back, rest, err := DecodeHistory(append(enc[4:], "tail"...))
		if err != nil || string(rest) != "tail" {
			t.Logf("decode: rest %q, err %v", rest, err)
			return false
		}
		if !bytes.Equal(back.AppendBinary([]byte("head")), enc) {
			t.Log("re-encoding differs")
			return false
		}
		if !back.Start().Equal(h.Start()) || back.Bytes() != h.Bytes() {
			return false
		}
		// Hourly and odd-stepped windows from before the start to past the end.
		for _, step := range []time.Duration{time.Minute, 7 * time.Minute, time.Hour, 24 * time.Hour} {
			from := t0.Add(-3 * time.Hour)
			want := make([]float64, int((time.Duration(days)*24*time.Hour+6*time.Hour)/step)+1)
			got := make([]float64, len(want))
			h.Window(want, from, step)
			back.Window(got, from, step)
			if !slices.Equal(got, want) {
				t.Logf("Window step %v differs", step)
				return false
			}
		}
		for i := 0; i < 200; i++ {
			at := t0.Add(time.Duration(rng.Intn((days+1)*24*60)) * time.Minute)
			if back.At(at) != h.At(at) {
				t.Logf("At(%v) = %v, want %v", at, back.At(at), h.At(at))
				return false
			}
		}
		// The restored history is live: it records and compacts like its twin.
		later := t0.Add(time.Duration(days+40) * 24 * time.Hour)
		for _, x := range []*History{h, back} {
			x.Record(later, 2)
			x.Compact(later)
		}
		return bytes.Equal(back.AppendBinary(nil), h.AppendBinary(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeHistoryErrors: every way a history's bytes can be wrong is a
// descriptive error, and a bin count is never trusted further than the bytes
// present.
func TestDecodeHistoryErrors(t *testing.T) {
	h := NewHistory(t0)
	h.Record(t0, 3)
	h.Record(t0.Add(40*24*time.Hour), 7)
	h.Compact(t0.Add(40 * 24 * time.Hour))
	good := h.AppendBinary(nil)
	fineBins := 16                       // offset of the first fine bin
	coarseHdr := 16 + 8*len(h.fine.Data) // offset of the coarse tier's start
	patch := func(off int, v uint64) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint64(b[off:], v)
		return b
	}
	cases := []struct {
		name    string
		in      []byte
		wantSub string
	}{
		{"empty", nil, "truncated"},
		{"half a tier header", good[:9], "truncated"},
		{"no coarse tier", good[:coarseHdr], "truncated"},
		{"bins cut short", good[:len(good)-8], "bytes remain"},
		{"fine count past the buffer", patch(8, uint64(len(good))), "bytes remain"},
		{"count that overflows int", patch(8, 1<<63), "bytes remain"},
		{"coarse count past the buffer", patch(coarseHdr+8, 1<<40), "bytes remain"},
		{"fine start off the minute", patch(0, uint64(h.fine.Start.Unix()+1)), "boundary"},
		{"coarse start off the hour", patch(coarseHdr, uint64(h.coarse.Start.Unix()+60)), "boundary"},
		{"NaN bin", patch(fineBins, math.Float64bits(math.NaN())), "finite and non-negative"},
		{"+Inf bin", patch(fineBins, math.Float64bits(math.Inf(1))), "finite and non-negative"},
		{"negative bin", patch(coarseHdr+16, math.Float64bits(-1)), "finite and non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeHistory(tc.in)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %v does not mention %q", err, tc.wantSub)
			}
		})
	}
	if _, rest, err := DecodeHistory(good); err != nil || len(rest) != 0 {
		t.Fatalf("pristine bytes: rest %d, err %v", len(rest), err)
	}
}
