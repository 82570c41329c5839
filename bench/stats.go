package main

import (
	"errors"
	"math"
	"sort"
)

// metric is one named measurement: a value, its unit and how many samples
// the value summarises.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// median returns the middle value (mean of the two middle values for an even
// count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean; NaN for no samples.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// minTailSamples is how many samples must lie beyond a reported percentile;
// with fewer, the figure is one or two outliers rather than a tail.
const minTailSamples = 10

// errThinTail refuses a percentile too high for the sample count.
var errThinTail = errors.New("fewer than ten samples beyond the percentile")

// percentile returns the p-th percentile (0 < p < 1, nearest rank) of xs, or
// errThinTail when fewer than minTailSamples samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if len(s)-rank < minTailSamples {
		return math.NaN(), errThinTail
	}
	return s[rank-1], nil
}

// ack is one acknowledged request of a timed phase.
type ack struct {
	// dueNS is when the request was due (open loop) or sent (closed loop) and
	// doneNS when its reply had been read, both on the nowNS clock.
	dueNS, doneNS int64
	lines         int64
}

// latMS is the request's latency, from its due time.
func (a ack) latMS() float64 { return float64(a.doneNS-a.dueNS) / 1e6 }

// in reports whether the request was due inside the window.
func (a ack) in(w window) bool { return a.dueNS >= w.startNS && a.dueNS < w.endNS }

// windowRates cuts [startNS, startNS + n seconds) into one-second windows and
// returns the lines acknowledged per second in each. Acks outside the span
// are ignored.
func windowRates(acks []ack, startNS int64, n int) []float64 {
	out := make([]float64, n)
	for _, a := range acks {
		if w := (a.doneNS - startNS) / 1e9; a.doneNS >= startNS && w < int64(n) {
			out[w] += float64(a.lines)
		}
	}
	return out
}
