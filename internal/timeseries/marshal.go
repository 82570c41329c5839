package timeseries

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"
)

// A history's bytes are its two tiers, fine then coarse, each
//
//	[8]   start, Unix seconds
//	[8]   bin count n
//	[8·n] bins, IEEE-754 bits
//
// all little-endian. Nothing else is stored: the tiers' intervals, the fine
// window and the compaction ratio are this package's constants, so no file
// can disagree with the code that reads it. AppendBinary and DecodeHistory
// are the only two functions that know this layout; the catalog snapshot
// (preprocess/snapshot.go) frames and checksums it.

// tierIntervals are the bin widths of the fine and the coarse tier.
var tierIntervals = [2]time.Duration{Minute, Minute * DefaultCompactionRatio}

// AppendBinary appends the history's encoding to dst and returns the extended
// slice, growing dst once by exactly the encoded size.
func (h *History) AppendBinary(dst []byte) []byte {
	dst = slices.Grow(dst, 32+h.Bytes())
	for _, s := range [2]*Series{h.fine, h.coarse} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Start.Unix()))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(s.Data)))
		for _, v := range s.Data {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// DecodeHistory decodes one history from the front of src and returns it
// with the bytes that follow it. A bin count is checked against the bytes
// present before anything is allocated; a tier start off its interval's
// boundary and a bin that is NaN, infinite or negative are errors — an
// arrival count is none of those, and a model must never see one.
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
		if n > uint64(len(src)/8) {
			return nil, nil, fmt.Errorf("timeseries: tier declares %d bins, only %d bytes remain", n, len(src))
		}
		data := make([]float64, n)
		for j := range data {
			v := math.Float64frombits(binary.LittleEndian.Uint64(src[8*j:]))
			if !(v >= 0 && v <= math.MaxFloat64) {
				return nil, nil, fmt.Errorf("timeseries: bin %d is %v; an arrival count is finite and non-negative", j, v)
			}
			data[j] = v
		}
		tiers[i] = &Series{Start: time.Unix(start, 0).UTC(), Interval: interval, Data: data}
		src = src[8*n:]
	}
	return &History{fine: tiers[0], coarse: tiers[1]}, src, nil
}
