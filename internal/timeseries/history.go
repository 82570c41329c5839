package timeseries

import (
	"math/rand"
	"sort"
	"time"
)

// History is the storage structure QB5000 keeps per template: recent arrival
// counts at the one-minute base interval plus an aggregated coarse tier for
// stale records (paper §4: "the system aggregates stale arrival rate records
// into larger intervals to save storage space").
type History struct {
	fine   *Series // recent 1-minute bins
	coarse *Series // aggregated older bins, DefaultCompactionRatio minutes each
}

// DefaultFineWindow is how much trailing history stays fine-grained: one
// month of minute-level data, matching the clusterer's "last month" feature
// window (§5.1).
const DefaultFineWindow = 31 * 24 * time.Hour

// DefaultCompactionRatio aggregates stale data into one-hour bins, the
// interval the spike model trains on (§6.2).
const DefaultCompactionRatio = 60

// NewHistory creates a history anchored at start.
func NewHistory(start time.Time) *History {
	return &History{
		fine:   NewSeries(start, Minute),
		coarse: NewSeries(start, Minute*DefaultCompactionRatio),
	}
}

// Record adds count arrivals at t.
func (h *History) Record(t time.Time, count float64) { h.fine.Add(t, count) }

// Compact moves fine bins older than now-window into the coarse tier.
// It returns the number of fine bins released.
func (h *History) Compact(now time.Time) int {
	cutoff := now.Add(-DefaultFineWindow).Truncate(h.coarse.Interval)
	n := h.fine.indexOf(cutoff)
	if n <= 0 {
		return 0
	}
	if n > len(h.fine.Data) {
		n = len(h.fine.Data)
	}
	// Round down to a whole coarse bin so the two tiers never overlap.
	n -= n % DefaultCompactionRatio
	if n <= 0 {
		return 0
	}
	for i := 0; i < n; i++ {
		if v := h.fine.Data[i]; v != 0 {
			h.coarse.Add(h.fine.TimeOf(i), v)
		}
	}
	// Shift the fine tier down in place: it keeps its capacity, so the next
	// minute does not reallocate, and Add zeroes the stale tail it exposes.
	h.fine.Start = h.fine.TimeOf(n)
	h.fine.Data = h.fine.Data[:copy(h.fine.Data, h.fine.Data[n:])]
	return n
}

// Start returns the earliest instant the history holds a bin for.
func (h *History) Start() time.Time {
	if len(h.coarse.Data) > 0 {
		return h.coarse.Start
	}
	return h.fine.Start
}

// At returns the arrival count for the minute containing t, consulting
// whichever tier covers it. Counts from the coarse tier are scaled down to a
// per-minute average so both tiers report in the same unit.
func (h *History) At(t time.Time) float64 {
	if !t.Before(h.fine.Start) {
		return h.fine.At(t)
	}
	if t.Before(h.coarse.Start) {
		return 0
	}
	return h.coarse.At(t) / float64(DefaultCompactionRatio)
}

// Window adds to dst[i] the arrivals in [from+i·step, from+(i+1)·step); step
// must be a whole number of minutes. It is the one bulk read of a history:
// every cluster volume, centre series and training matrix is a sum of
// Window calls, so the tiers stay this package's private business.
//
// Each bin is summed minute by minute in ascending time into its own
// accumulator and then added to dst[i] — the order the callers' At loops
// used, so their floats are unchanged. A compacted hour that a bin covers
// whole contributes its stored count; one it covers in part contributes the
// per-minute average At reports, once per covered minute.
func (h *History) Window(dst []float64, from time.Time, step time.Duration) {
	if step < Minute || step%Minute != 0 {
		panic("timeseries: window step is not a whole number of minutes")
	}
	per := int(step / Minute)
	// Minute k of the window is the instant from+k·Minute. It reads fine
	// bin f+k or, before the fine tier, coarse bin (c+k)/ratio.
	f := floorMinutes(from.Sub(h.fine.Start))
	c := floorMinutes(from.Sub(h.coarse.Start))
	fine, coarse := h.fine.Data, h.coarse.Data
	for i := range dst {
		var sum float64
		end := (i + 1) * per
		for k := max(i*per, -c); k < min(end, -f); {
			j := (c + k) / DefaultCompactionRatio
			if j >= len(coarse) {
				break
			}
			// stop is the first minute past hour j's compacted extent.
			stop := min((j+1)*DefaultCompactionRatio-c, -f)
			if k == j*DefaultCompactionRatio-c && stop <= end {
				sum += coarse[j]
			} else {
				v := coarse[j] / float64(DefaultCompactionRatio)
				for n := min(stop, end) - k; n > 0; n-- {
					sum += v
				}
			}
			k = stop
		}
		if lo, hi := max(f+i*per, 0), min(f+end, len(fine)); lo < hi {
			for _, v := range fine[lo:hi] {
				sum += v
			}
		}
		dst[i] += sum
	}
}

// floorMinutes is d in whole minutes, rounded toward negative infinity.
func floorMinutes(d time.Duration) int {
	m := int(d / Minute)
	if d%Minute < 0 {
		m--
	}
	return m
}

// Clone deep-copies the history. Clones back the immutable template
// snapshots the sharded catalog hands to the clusterer and to API readers:
// the original can keep recording under its shard lock while the clone is
// read without any synchronization.
func (h *History) Clone() *History {
	return &History{
		fine:   h.fine.Clone(),
		coarse: h.coarse.Clone(),
	}
}

// Bytes estimates the storage footprint of the history in bytes
// (8 bytes per bin), used by the Table 4 overhead accounting. It counts the
// bins the history holds, not the spare capacity Add grows a tier into.
func (h *History) Bytes() int {
	return 8 * (len(h.fine.Data) + len(h.coarse.Data))
}

// SampleTimestamps draws n sorted uniform-random minute-aligned timestamps
// in [from, to). The clusterer samples the feature timestamps this way
// (§5.1: "QB5000 first randomly samples timestamps before the current time
// point").
func SampleTimestamps(rng *rand.Rand, from, to time.Time, n int) []time.Time {
	span := int64(to.Sub(from) / Minute)
	if span <= 0 || n <= 0 {
		return nil
	}
	out := make([]time.Time, n)
	for i := range out {
		out[i] = from.Add(time.Duration(rng.Int63n(span)) * Minute)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}
