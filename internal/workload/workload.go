// Package workload generates the synthetic SQL traces that stand in for the
// paper's three proprietary application traces (Admissions, BusTracker,
// MOOC — §2.1) plus the noisy composite workload of Appendix D.
//
// Each workload is a set of query shapes. A shape couples a concrete-SQL
// generator (fresh parameters every invocation, so the Pre-Processor's
// templatization is genuinely exercised) with a deterministic arrival-rate
// function over time. Replaying a window samples a Poisson count per shape
// per emission step. All randomness is seeded, so traces are reproducible.
//
// The generators are tuned to reproduce the *patterns* the paper's
// evaluation depends on:
//
//   - BusTracker: 24-hour cycles with morning/evening rush peaks and a
//     weekend dip (Figure 1a), with groups of shapes sharing a pattern at
//     different volumes (Figure 3);
//   - Admissions: growth toward annual Dec 1 / Dec 15 deadlines with sharp
//     spikes, repeating across years (Figures 1b, 9);
//   - MOOC: workload evolution — new query shapes appear over time,
//     including a burst when a "new feature" launches (Figure 1c);
//   - Noisy: eight OLTP-Bench-style benchmarks run consecutively with 50 %
//     white noise and injected anomalies (Figure 17).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Shape is one query shape: a concrete-SQL generator plus an arrival-rate
// pattern.
type Shape struct {
	// Name identifies the shape for debugging and experiment output.
	Name string
	// Gen renders a concrete SQL instance with fresh parameters.
	Gen func(rng *rand.Rand, at time.Time) string
	// Rate returns the expected queries per minute at time at.
	Rate func(at time.Time) float64
	// ActiveFrom optionally delays the shape's first appearance (workload
	// evolution); zero means always active.
	ActiveFrom time.Time
}

// Event is a batch of arrivals of one concrete query within one emission
// step.
type Event struct {
	At    time.Time
	SQL   string
	Shape string
	Count int64
}

// Workload is a named set of shapes with replay configuration.
type Workload struct {
	// Name is the trace name ("admissions", "bustracker", "mooc", "noisy").
	Name string
	// DBMS records which system the paper ran this trace on (Table 1).
	DBMS string
	// Tables is the application's table count (Table 1).
	Tables int
	// Shapes are the workload's query shapes.
	Shapes []*Shape
	// Noise is the multiplicative white-noise fraction applied to every
	// rate sample (0.5 = variance 50% of mean, per Appendix D).
	Noise float64
	// Drift optionally scales the whole workload by a slowly-varying
	// stochastic level (see newDrift). Real traces carry day-scale volume
	// drift that no model can read off a one-day input window, which is
	// what makes long prediction horizons genuinely harder than short ones
	// (§7.2). Nil means no drift.
	Drift func(at time.Time) float64
	// Seed drives all replay randomness.
	Seed int64
	// Start and End delimit the recommended replay window, mirroring the
	// trace lengths in Table 1.
	Start, End time.Time
}

// Replay walks [from, to) in steps, sampling a Poisson arrival count per
// shape per step and invoking fn for each non-empty batch. Events within a
// step are emitted in shape order; steps advance chronologically.
func (w *Workload) Replay(from, to time.Time, step time.Duration, fn func(Event) error) error {
	if step <= 0 {
		return fmt.Errorf("workload: non-positive step %v", step)
	}
	rng := rand.New(rand.NewSource(w.Seed))
	stepMinutes := step.Minutes()
	for at := from; at.Before(to); at = at.Add(step) {
		drift := 1.0
		if w.Drift != nil {
			drift = w.Drift(at)
		}
		for _, s := range w.Shapes {
			if !s.ActiveFrom.IsZero() && at.Before(s.ActiveFrom) {
				continue
			}
			lambda := s.Rate(at) * stepMinutes * drift
			if w.Noise > 0 {
				lambda *= 1 + w.Noise*rng.NormFloat64()
			}
			if lambda <= 0 {
				continue
			}
			count := poisson(rng, lambda)
			if count == 0 {
				continue
			}
			ev := Event{At: at, SQL: s.Gen(rng, at), Shape: s.Name, Count: count}
			if err := fn(ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// ExpectedRate returns the noise-free total arrival rate (queries/minute)
// across all active shapes at time at, including drift.
func (w *Workload) ExpectedRate(at time.Time) float64 {
	var total float64
	for _, s := range w.Shapes {
		if !s.ActiveFrom.IsZero() && at.Before(s.ActiveFrom) {
			continue
		}
		total += s.Rate(at)
	}
	if w.Drift != nil {
		total *= w.Drift(at)
	}
	return total
}

// newDrift builds a deterministic day-scale level process: the log level
// follows an AR(1) over days (decay 0.85) whose innovations are hashed from
// the seed, linearly interpolated within days. amplitude is the innovation
// standard deviation in log space; the resulting multiplier wanders around
// 1 with autocorrelation ≈0.85/day, so a one-day input window carries the
// current level but one-week-ahead levels stay genuinely uncertain.
func newDrift(seed int64, amplitude float64) func(at time.Time) float64 {
	const decay = 0.85
	innov := func(day int64) float64 {
		r := rand.New(rand.NewSource(seed ^ day*0x9e3779b97f4a7c))
		return r.NormFloat64() * amplitude
	}
	level := func(day int64) float64 {
		// 0.85^40 ≈ 1.5e-3: the tail beyond 40 days is negligible.
		var acc float64
		w := 1.0
		for i := int64(0); i < 40; i++ {
			acc += w * innov(day-i)
			w *= decay
		}
		return acc
	}
	return func(at time.Time) float64 {
		day := at.Unix() / 86400
		frac := float64(at.Unix()%86400) / 86400
		l := level(day)*(1-frac) + level(day+1)*frac
		return math.Exp(l)
	}
}

// ActiveShapes returns how many shapes have appeared by time at, used by the
// MOOC evolution figure (accumulated distinct queries, Figure 1c).
func (w *Workload) ActiveShapes(at time.Time) int {
	n := 0
	for _, s := range w.Shapes {
		if s.ActiveFrom.IsZero() || !at.Before(s.ActiveFrom) {
			n++
		}
	}
	return n
}

// poisson samples a Poisson(lambda) count, switching to the normal
// approximation for large lambda.
func poisson(rng *rand.Rand, lambda float64) int64 {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int64(v + 0.5)
	}
	// Knuth's method.
	l := math.Exp(-lambda)
	var k int64
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10_000 { // guard against pathological lambda
			return k
		}
	}
}

// diurnal is a reusable daily pattern: a base load plus Gaussian bumps at
// the given hours (fractional hours allowed), scaled by a weekend factor.
func diurnal(at time.Time, base float64, peaks []peak, weekendFactor float64) float64 {
	h := float64(at.Hour()) + float64(at.Minute())/60
	v := base
	for _, p := range peaks {
		d := h - p.hour
		// Wrap midnight so a 23:30 peak bleeds into 00:30.
		if d > 12 {
			d -= 24
		}
		if d < -12 {
			d += 24
		}
		v += p.height * math.Exp(-d*d/(2*p.width*p.width))
	}
	if wd := at.Weekday(); wd == time.Saturday || wd == time.Sunday {
		v *= weekendFactor
	}
	return v
}

type peak struct {
	hour   float64
	height float64
	width  float64
}
