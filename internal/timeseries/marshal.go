package timeseries

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// A history's bytes are its two tiers, fine then coarse, each
//
//	[8]  start, Unix seconds, little-endian
//	[8]  bin count n, little-endian
//	[…]  the n bins as a token stream
//
// An arrival count is a whole number and most minutes hold none, so the bins
// are tokens rather than raw IEEE-754 bits:
//
//	2(r−1)         one byte, 0x00–0x7e: a run of r ∈ [1, 64] zero bins
//	uvarint 2k+1   one bin holding the whole count k, 1 ≤ k < 2⁵³ (one byte
//	               below 64, two below 8,192)
//	0x01, [8]      one bin holding any other value — fractional, ≥ 2⁵³ or
//	               −0 — as little-endian IEEE-754 bits
//
// The encoding is canonical: zeros go out as runs of 64 and one shorter run
// to end the stretch, a value a count token can hold never goes out as an
// escape, and uvarints are minimal. DecodeHistory accepts that form and no
// other, so an accepted history re-encodes to exactly the bytes it consumed.
// No token yields more than 64 bins per byte, which bounds what a declared
// bin count may ask for. Nothing else is stored: the tiers' intervals, the
// fine window and the compaction ratio are this package's constants, so no
// file can disagree with the code that reads it. AppendBinary and
// DecodeHistory are the only two functions that know this layout; the
// catalog snapshot (preprocess/snapshot.go) frames and checksums it.

// tierIntervals are the bin widths of the fine and the coarse tier.
var tierIntervals = [2]time.Duration{Minute, Minute * DefaultCompactionRatio}

const (
	maxRun   = 64      // zero bins per run token
	escape   = 0x01    // the count token k = 0, which a run spells instead
	maxCount = 1 << 53 // from here on not every whole number is a float64
)

// AppendBinary appends the history's encoding to dst and returns the extended
// slice.
func (h *History) AppendBinary(dst []byte) []byte {
	for _, s := range [2]*Series{h.fine, h.coarse} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Start.Unix()))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(s.Data)))
		for i := 0; i < len(s.Data); i++ {
			v := s.Data[i]
			if math.Float64bits(v) == 0 {
				r := 1
				for r < maxRun && i+r < len(s.Data) && math.Float64bits(s.Data[i+r]) == 0 {
					r++
				}
				dst = append(dst, byte(2*(r-1)))
				i += r - 1
			} else if k, ok := wholeCount(v); ok {
				dst = binary.AppendUvarint(dst, 2*k+1)
			} else {
				dst = binary.LittleEndian.AppendUint64(append(dst, escape), math.Float64bits(v))
			}
		}
	}
	return dst
}

// wholeCount returns v as a count token's k, and whether one can hold it.
func wholeCount(v float64) (uint64, bool) {
	if !(v >= 1 && v < maxCount) {
		return 0, false
	}
	k := uint64(v)
	return k, math.Float64bits(float64(k)) == math.Float64bits(v)
}

// DecodeHistory decodes one history from the front of src and returns it
// with the bytes that follow it. A bin count is checked against the bins the
// bytes present could hold before anything is allocated; a tier start off its
// interval's boundary, a bin that is NaN, infinite or negative (an arrival
// count is none of those, and a model must never see one), a run past the
// tier's end, a truncated token and any token the encoder would not have
// written are errors.
func DecodeHistory(src []byte) (*History, []byte, error) {
	var tiers [2]*Series
	for i, interval := range tierIntervals {
		if len(src) < 16 {
			return nil, nil, fmt.Errorf("timeseries: history truncated: %d bytes left for a 16-byte tier header", len(src))
		}
		start := int64(binary.LittleEndian.Uint64(src))
		n := binary.LittleEndian.Uint64(src[8:])
		src = src[16:]
		if start%int64(interval/time.Second) != 0 {
			return nil, nil, fmt.Errorf("timeseries: tier start %d is not on a %v boundary", start, interval)
		}
		if n > maxRun*uint64(len(src)) {
			return nil, nil, fmt.Errorf("timeseries: tier declares %d bins, only %d bytes remain (at most %d bins per byte)", n, len(src), maxRun)
		}
		data := make([]float64, n)
		var err error
		if src, err = decodeBins(data, src); err != nil {
			return nil, nil, err
		}
		tiers[i] = &Series{Start: time.Unix(start, 0).UTC(), Interval: interval, Data: data}
	}
	return &History{fine: tiers[0], coarse: tiers[1]}, src, nil
}

// decodeBins fills the zeroed data from the tokens at the front of src and
// returns the bytes after the last one.
func decodeBins(data []float64, src []byte) ([]byte, error) {
	shortRun := false // the previous token was a run of fewer than maxRun zeros
	for j := 0; j < len(data); j++ {
		if len(src) == 0 {
			return nil, fmt.Errorf("timeseries: bins truncated after %d of %d", j, len(data))
		}
		switch b := src[0]; {
		case b&1 == 0:
			r := int(b)/2 + 1
			switch {
			case r > maxRun:
				return nil, fmt.Errorf("timeseries: bin %d: byte %#x is not a run token (one byte, at most %#x)", j, b, 2*(maxRun-1))
			case shortRun:
				return nil, fmt.Errorf("timeseries: bin %d: non-canonical run: a run follows a run of fewer than %d zeros", j, maxRun)
			case r > len(data)-j:
				return nil, fmt.Errorf("timeseries: bin %d: a run of %d zeros overruns the tier's %d bins", j, r, len(data))
			}
			shortRun = r < maxRun
			src = src[1:]
			j += r - 1
			continue
		case b == escape:
			if len(src) < 9 {
				return nil, fmt.Errorf("timeseries: bin %d: escape truncated: %d of its 8 bytes present", j, len(src)-1)
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(src[1:]))
			if !(v >= 0 && v <= math.MaxFloat64) {
				return nil, fmt.Errorf("timeseries: bin %d is %v; an arrival count is finite and non-negative", j, v)
			}
			if _, ok := wholeCount(v); ok || math.Float64bits(v) == 0 {
				return nil, fmt.Errorf("timeseries: bin %d: non-canonical escape: %v has a shorter token", j, v)
			}
			data[j] = v
			src = src[9:]
		default:
			u, m := binary.Uvarint(src)
			switch {
			case m == 0:
				return nil, fmt.Errorf("timeseries: bin %d: count token truncated", j)
			case m < 0 || u>>1 >= maxCount:
				return nil, fmt.Errorf("timeseries: bin %d: count token is 2^53 or more; such a count is an escape", j)
			case m > 1 && src[m-1] == 0:
				return nil, fmt.Errorf("timeseries: bin %d: non-canonical count token: overlong uvarint", j)
			}
			data[j] = float64(u >> 1)
			src = src[m:]
		}
		shortRun = false
	}
	return src, nil
}
