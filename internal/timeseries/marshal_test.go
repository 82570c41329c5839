package timeseries

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

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

// oddBins are the values no arrival count of 1–5 produces: counts on either
// side of the one- and two-byte token limits and of 2^53, fractions, the
// largest float and −0, which a count token cannot spell.
var oddBins = []float64{63, 64, 8191, 8192, 1<<53 - 1, 1 << 53, 1<<53 + 2, 0.5, 1e-300, 2.75, math.MaxFloat64, math.Copysign(0, -1)}

// tokenBytes is the size of bins' token stream, counted from the layout in
// marshal.go rather than by the encoder: a stretch of z zeros takes ⌈z/64⌉
// bytes, a whole count k in [1, 2^53) the 7-bit groups of 2k+1, anything else
// (−0 included) nine bytes.
func tokenBytes(bins []float64) int {
	n, zeros := 0, 0
	for _, v := range bins {
		if math.Float64bits(v) == 0 {
			zeros++
			continue
		}
		n += (zeros + 63) / 64
		zeros = 0
		if v >= 1 && v < 1<<53 && v == math.Trunc(v) {
			n += (bits.Len64(2*uint64(v)+1) + 6) / 7
		} else {
			n += 9
		}
	}
	return n + (zeros+63)/64
}

// TestHistoryBinaryRoundTrip is the codec's one property: over random
// histories — arrivals out of order, compacted and not, some bins set to
// values only an escape or a long count token holds, with bytes before and
// after them in the buffer — decode(encode(h)) is exactly the size the layout
// gives, reads identically through Window and At, consumes exactly its own
// bytes, re-encodes to the same bytes, and keeps recording and compacting.
func TestHistoryBinaryRoundTrip(t *testing.T) {
	f := func(seed int64, compact bool) bool {
		rng := rand.New(rand.NewSource(seed))
		days := 1 + rng.Intn(70)
		h := randomHistory(rng, rng.Intn(300), days, compact)
		for _, s := range [2]*Series{h.fine, h.coarse} {
			for i := 0; len(s.Data) > 0 && i < rng.Intn(4); i++ {
				s.Data[rng.Intn(len(s.Data))] = oddBins[rng.Intn(len(oddBins))]
			}
		}
		enc := h.AppendBinary([]byte("head"))
		if want := 4 + 32 + tokenBytes(h.fine.Data) + tokenBytes(h.coarse.Data); len(enc) != want {
			t.Logf("encoded %d bytes, want %d", len(enc), want)
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
		for _, pair := range [2][2]*Series{{h.fine, back.fine}, {h.coarse, back.coarse}} {
			if len(pair[1].Data) != cap(pair[1].Data) {
				t.Log("a decoded tier holds spare capacity")
				return false
			}
			for i, v := range pair[0].Data {
				if math.Float64bits(pair[1].Data[i]) != math.Float64bits(v) {
					t.Logf("bin %d decoded as %v, want %v", i, pair[1].Data[i], v)
					return false
				}
			}
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

// tier hand-assembles one tier: its header, then the given token bytes.
func tier(start int64, n uint64, tokens ...byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(start))
	return append(binary.LittleEndian.AppendUint64(b, n), tokens...)
}

// history hand-assembles a history whose fine tier starts at 0 and holds n
// bins in the given tokens, and whose coarse tier is empty.
func history(n uint64, tokens ...byte) []byte {
	return append(tier(0, n, tokens...), tier(0, 0)...)
}

// escaped is the escape token holding v.
func escaped(v float64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{escape}, math.Float64bits(v))
}

// countToken is the count token holding k, whatever k is.
func countToken(k uint64) []byte { return binary.AppendUvarint(nil, 2*k+1) }

type decodeCase struct {
	name    string
	in      []byte
	wantSub string
}

// decodeErrorCases is the corruption table of one history, shared by
// TestDecodeHistoryErrors and FuzzDecodeHistory's seeds. good is a compacted
// history whose fine tier opens with a fraction (1.5, an escape at byte 16)
// and ends in a count, and whose one coarse bin is a fraction too (0.5, an
// escape at coarseHdr+16): the encoder writes no NaN, infinity or negative
// value, so those rows patch the 8 bytes of an escape it did write.
func decodeErrorCases() (h *History, good []byte, cases []decodeCase) {
	h = NewHistory(t0)
	h.Record(t0, 0.5)
	h.Record(t0.Add(9*24*time.Hour), 1.5) // the first minute the fine tier keeps
	h.Record(t0.Add(40*24*time.Hour), 7)
	h.Compact(t0.Add(40 * 24 * time.Hour))
	good = h.AppendBinary(nil)
	const fineEscape = 17             // the first fine bin's 8 bytes
	coarseHdr := len(good) - (16 + 9) // the coarse tier: header and one escape
	patch := func(off int, v uint64) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint64(b[off:], v)
		return b
	}
	return h, good, []decodeCase{
		{"empty", nil, "truncated"},
		{"half a tier header", good[:9], "truncated"},
		{"no coarse tier", good[:coarseHdr], "truncated"},
		{"bins cut short", good[:len(good)-8], "escape truncated"},
		{"fine count past the buffer", patch(8, 64*uint64(len(good)-16)+1), "bytes remain"},
		{"count that overflows int", patch(8, 1<<63), "bytes remain"},
		{"coarse count past the buffer", patch(coarseHdr+8, 1<<40), "bytes remain"},
		{"fine start off the minute", patch(0, uint64(h.fine.Start.Unix()+1)), "boundary"},
		{"coarse start off the hour", patch(coarseHdr, uint64(h.coarse.Start.Unix()+60)), "boundary"},
		{"NaN bin", patch(fineEscape, math.Float64bits(math.NaN())), "finite and non-negative"},
		{"+Inf bin", patch(fineEscape, math.Float64bits(math.Inf(1))), "finite and non-negative"},
		{"negative bin", patch(coarseHdr+17, math.Float64bits(-1)), "finite and non-negative"},
		{"run overrunning n", history(2, 0x04), "overruns"},
		{"multi-byte run token", history(200, 0x80, 0x01), "not a run token"},
		{"truncated escape", tier(0, 1, escape, 0, 0, 0), "escape truncated"},
		{"truncated count token", tier(0, 1, 0x81), "count token truncated"},
		{"count token of 2^53", history(1, countToken(1<<53)...), "2^53 or more"},
		{"count token past 64 bits", history(1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), "2^53 or more"},
		{"short run then a run", history(66, 0x02, 0x7e), "non-canonical run"},
		{"short run then a short run", history(2, 0x00, 0x00), "non-canonical run"},
		{"escape holding a count", history(1, escaped(3)...), "non-canonical escape"},
		{"escape holding the largest count", history(1, escaped(1<<53-1)...), "non-canonical escape"},
		{"escape holding zero", history(1, escaped(0)...), "non-canonical escape"},
		{"overlong count token", history(1, 0x83, 0x00), "overlong"},
		{"overlong escape byte", history(1, 0x81, 0x00), "overlong"},
	}
}

// canonicalEdges are hand-assembled histories at the edges of the canonical
// form, each of which must be accepted.
var canonicalEdges = [][]byte{
	history(0),
	history(65, 0x7e, 0x00),                          // a full run, then a short one
	history(129, 0x7e, 0x7e, 0x00),                   // two full runs, then a short one
	history(3, 0x00, 0x03, 0x00),                     // a short run, a count, a short run
	history(2, append(countToken(1<<53-1), 0x7f)...), // the largest count, then 63
	history(1, escaped(1<<53)...),
	history(1, escaped(math.Copysign(0, -1))...),
	history(1, escaped(0.5)...),
}

// TestDecodeHistoryErrors: every way a history's bytes can be wrong — the
// encoder's bytes patched, or tokens it would never write — is a descriptive
// error, and a bin count is never trusted beyond the 64 bins a byte can hold.
// The canonical edges next to those rows decode and re-encode to themselves.
func TestDecodeHistoryErrors(t *testing.T) {
	h, good, cases := decodeErrorCases()
	if v := h.fine.Data[0]; v != 1.5 || h.coarse.Data[0] != 0.5 || len(h.coarse.Data) != 1 {
		t.Fatalf("fixture moved: fine bin 0 is %v, coarse tier %v", v, h.coarse.Data)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeHistory(tc.in)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %v does not mention %q", err, tc.wantSub)
			}
		})
	}
	for _, in := range append(canonicalEdges, good) {
		back, rest, err := DecodeHistory(in)
		if err != nil || len(rest) != 0 {
			t.Fatalf("% x: rest %d, err %v", in, len(rest), err)
		}
		if !bytes.Equal(back.AppendBinary(nil), in) {
			t.Fatalf("% x re-encodes as % x", in, back.AppendBinary(nil))
		}
	}
}

// FuzzDecodeHistory: on arbitrary bytes DecodeHistory never panics, and a
// history it accepts holds at most 64 bins per input byte and re-encodes to
// exactly the bytes it consumed — the decoder accepts the canonical form and
// nothing else.
func FuzzDecodeHistory(f *testing.F) {
	_, good, cases := decodeErrorCases()
	f.Add(good)
	for _, tc := range cases {
		f.Add(tc.in)
	}
	for _, in := range canonicalEdges {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		h, rest, err := DecodeHistory(in)
		if err != nil {
			return
		}
		if n := len(h.fine.Data) + len(h.coarse.Data); n > 64*len(in) {
			t.Fatalf("%d input bytes decoded to %d bins", len(in), n)
		}
		if used := in[:len(in)-len(rest)]; !bytes.Equal(h.AppendBinary(nil), used) {
			t.Fatalf("accepted % x, which re-encodes as % x", used, h.AppendBinary(nil))
		}
	})
}
