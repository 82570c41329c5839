// Package timeseries implements the arrival-rate history data structures
// used throughout QB5000: fixed-interval binned counts, aggregation across
// prediction intervals, timestamp sampling for clustering features, and the
// log-space transform the models train in.
//
// The framework records query arrivals at a one-minute granularity (the
// finest prediction interval it offers, paper §6.2) and aggregates into
// coarser intervals on demand for model training.
package timeseries

import "time"

// Minute is the base recording interval of the framework.
const Minute = time.Minute

// Series is a regularly-binned time series of query arrival counts.
// Bin i covers [Start + i*Interval, Start + (i+1)*Interval).
type Series struct {
	Start    time.Time
	Interval time.Duration
	Data     []float64
}

// NewSeries returns an empty series anchored at start, truncated to the
// interval boundary.
func NewSeries(start time.Time, interval time.Duration) *Series {
	if interval <= 0 {
		panic("timeseries: non-positive interval")
	}
	return &Series{Start: start.Truncate(interval), Interval: interval}
}

// Len returns the number of bins.
func (s *Series) Len() int { return len(s.Data) }

// indexOf returns the bin index for t, which may be negative or beyond the
// current length.
func (s *Series) indexOf(t time.Time) int {
	return int(t.Sub(s.Start) / s.Interval)
}

// TimeOf returns the start time of bin i.
func (s *Series) TimeOf(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Interval)
}

// Add records count arrivals at time t, growing the series as needed.
// Arrivals earlier than Start are folded into the first bin.
//
// A series of n bins that outgrows its capacity reallocates once, to
// max(i+1, n+max(n/8, one day of bins)): a live stream pays for a new bin in
// amortised constant time, and a far-off jump allocates exactly i+1 bins.
// Bins are zeroed when a reslice exposes them, so spare capacity may hold
// anything.
func (s *Series) Add(t time.Time, count float64) {
	i := s.indexOf(t)
	if i < 0 {
		i = 0
	}
	if n := len(s.Data); i >= n {
		if i >= cap(s.Data) {
			day := int(24 * time.Hour / s.Interval)
			grown := make([]float64, n, max(i+1, n+max(n/8, day)))
			copy(grown, s.Data)
			s.Data = grown
		}
		s.Data = s.Data[:i+1]
		clear(s.Data[n:])
	}
	s.Data[i] += count
}

// At returns the count in the bin containing t, or 0 outside the range.
func (s *Series) At(t time.Time) float64 {
	i := s.indexOf(t)
	if i < 0 || i >= len(s.Data) {
		return 0
	}
	return s.Data[i]
}

// Clone deep-copies the series.
func (s *Series) Clone() *Series {
	return &Series{Start: s.Start, Interval: s.Interval, Data: append([]float64(nil), s.Data...)}
}

// Slice returns the bins covering [from, to) as a copy; bins outside the
// recorded range are zero.
func (s *Series) Slice(from, to time.Time) []float64 {
	if !to.After(from) {
		return nil
	}
	n := int(to.Sub(from) / s.Interval)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = s.At(from.Add(time.Duration(i) * s.Interval))
	}
	return out
}

// Aggregate sums groups of `factor` consecutive bins into a coarser series,
// e.g. factor=60 turns 1-minute bins into 1-hour bins. The final partial
// group, if any, is included.
func (s *Series) Aggregate(factor int) *Series {
	if factor <= 1 {
		return s.Clone()
	}
	out := &Series{Start: s.Start, Interval: s.Interval * time.Duration(factor)}
	for i := 0; i < len(s.Data); i += factor {
		end := i + factor
		if end > len(s.Data) {
			end = len(s.Data)
		}
		var sum float64
		for _, v := range s.Data[i:end] {
			sum += v
		}
		out.Data = append(out.Data, sum)
	}
	return out
}

// Scale multiplies every bin by f in place.
func (s *Series) Scale(f float64) {
	for i := range s.Data {
		s.Data[i] *= f
	}
}

// Total returns the sum over all bins.
func (s *Series) Total() float64 {
	var t float64
	for _, v := range s.Data {
		t += v
	}
	return t
}
