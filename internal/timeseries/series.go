// Package timeseries implements the arrival-rate history data structures
// used throughout QB5000: fixed-interval binned counts, aggregation across
// prediction intervals, timestamp sampling for clustering features, and the
// accuracy metrics used in the evaluation.
//
// The framework records query arrivals at a one-minute granularity (the
// finest prediction interval it offers, paper §6.2) and aggregates into
// coarser intervals on demand for model training.
package timeseries

import (
	"fmt"
	"time"
)

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

// End returns the exclusive end time of the last bin.
func (s *Series) End() time.Time {
	return s.Start.Add(time.Duration(len(s.Data)) * s.Interval)
}

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
func (s *Series) Add(t time.Time, count float64) {
	i := s.indexOf(t)
	if i < 0 {
		i = 0
	}
	if i >= len(s.Data) {
		grown := make([]float64, i+1)
		copy(grown, s.Data)
		s.Data = grown
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

// AggregateTo re-bins the series to the given interval, which must be a
// multiple of the current interval.
func (s *Series) AggregateTo(interval time.Duration) (*Series, error) {
	if interval%s.Interval != 0 {
		return nil, fmt.Errorf("timeseries: interval %v is not a multiple of %v", interval, s.Interval)
	}
	return s.Aggregate(int(interval / s.Interval)), nil
}

// SampleAt returns the counts at the given timestamps. Timestamps outside
// the recorded range yield 0, matching the clusterer's treatment of periods
// before a template first appeared.
func (s *Series) SampleAt(stamps []time.Time) []float64 {
	out := make([]float64, len(stamps))
	for i, t := range stamps {
		out[i] = s.At(t)
	}
	return out
}

// AddSeries accumulates other into s bin-by-bin (aligned by time). The two
// series must share the same interval.
func (s *Series) AddSeries(other *Series) error {
	if other.Interval != s.Interval {
		return fmt.Errorf("timeseries: interval mismatch %v vs %v", s.Interval, other.Interval)
	}
	for i, v := range other.Data {
		if v == 0 {
			continue
		}
		s.Add(other.TimeOf(i), v)
	}
	return nil
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

// Mean returns the average bin value (0 for an empty series).
func (s *Series) Mean() float64 {
	if len(s.Data) == 0 {
		return 0
	}
	return s.Total() / float64(len(s.Data))
}

// Average returns the element-wise arithmetic mean of several same-interval
// series, aligned on the earliest start and latest end. It is used to
// compute cluster centers (paper §5.2 step 1).
func Average(series []*Series) (*Series, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("timeseries: Average of no series")
	}
	interval := series[0].Interval
	start, end := series[0].Start, series[0].End()
	for _, s := range series[1:] {
		if s.Interval != interval {
			return nil, fmt.Errorf("timeseries: interval mismatch %v vs %v", interval, s.Interval)
		}
		if s.Start.Before(start) {
			start = s.Start
		}
		if s.End().After(end) {
			end = s.End()
		}
	}
	out := NewSeries(start, interval)
	n := int(end.Sub(out.Start) / interval)
	out.Data = make([]float64, n)
	for _, s := range series {
		off := int(s.Start.Sub(out.Start) / interval)
		for i, v := range s.Data {
			out.Data[off+i] += v
		}
	}
	inv := 1 / float64(len(series))
	out.Scale(inv)
	return out, nil
}
