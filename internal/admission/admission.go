// Package admission implements the serving tier's load-shedding gate
// (DESIGN.md §9): a weighted semaphore bounding how much work is in flight
// at once, composed with an optional token-bucket rate limiter smoothing
// the sustained admission rate. The paper's deployment (§3, §6) runs the
// forecasting framework beside live traffic, so the observe path must shed
// overload instead of queueing it — a request that cannot be admitted
// immediately is answered with ErrOverload and never touches the catalog.
//
// TryAcquire/Release form the zero-alloc fast path (qb5000:noalloc, gated
// by the noalloc analyzer); Acquire is the ctx-bounded slow path for
// callers that prefer brief queueing over shedding. The calling convention
// — the returned error must propagate to a 429, and every successful
// acquire needs a Release on all paths — is held by the server's
// TestAdmissionSaturation and TestForecastAdmission.
package admission

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverload is the typed overload signal an admission check produces.
// HTTP handlers must map it to 429 Too Many Requests (the server's
// admission tests require it); errors from Acquire additionally unwrap to the
// context error when the caller's deadline expired while queued.
var ErrOverload = &overloadError{}

// overloadError is a distinct type so ErrOverload survives wrapping and
// comparison without allocation on the fast path.
type overloadError struct{}

func (*overloadError) Error() string { return "admission: overload" }

// A queueError is returned by Acquire when the caller's context ends while
// queued. It unwraps to both ErrOverload (for shed accounting and the 429
// mapping) and the context error (so callers can tell cancellation from
// deadline expiry).
type queueError struct{ cause error }

func (e *queueError) Error() string   { return "admission: overload: " + e.cause.Error() }
func (e *queueError) Unwrap() []error { return []error{ErrOverload, e.cause} }

// Options configures a Gate. The zero value admits everything.
type Options struct {
	// MaxInflight caps the admitted units concurrently in flight
	// (0 = unlimited).
	MaxInflight int64
	// Rate is the sustained admission rate in units per second, smoothed by
	// a token bucket (0 = unlimited).
	Rate float64
	// Burst is the token-bucket depth; 0 selects one second of Rate
	// (minimum 1) so short spikes inside the budget are not shed.
	Burst float64

	// nowNanos overrides the bucket clock in tests.
	nowNanos func() int64
}

// A Gate is one admission-control point: a weighted semaphore plus an
// optional token bucket, with admitted/shed/queued counters. The zero
// value is not usable; construct with New.
type Gate struct {
	maxInflight int64
	inflight    atomic.Int64
	// slot carries release wakeups to queued Acquire calls. Capacity 1 by
	// construction: a wakeup is a hint, waiters re-check the semaphore and
	// re-arm the hint for the next waiter.
	slot chan struct{}

	rate, burst float64
	nowNs       func() int64
	bmu         sync.Mutex
	// qb5000:guardedby bmu
	tokens float64
	// qb5000:guardedby bmu
	lastNs int64

	admitted atomic.Int64
	shed     atomic.Int64
	queued   atomic.Int64
}

// Stats is a point-in-time snapshot of one gate's counters.
type Stats struct {
	// Admitted counts calls that acquired the gate.
	Admitted int64
	// Shed counts calls rejected with ErrOverload (TryAcquire denials and
	// Acquire calls whose context ended while queued).
	Shed int64
	// Queued counts Acquire calls that could not be admitted immediately
	// and waited.
	Queued int64
	// Inflight is the admitted weight currently outstanding.
	Inflight int64
	// MaxInflight and Rate echo the configuration (0 = unlimited).
	MaxInflight int64
	Rate        float64
}

// wallNanos is the production bucket clock.
func wallNanos() int64 {
	//lint:ignore noclock token-bucket refill measures real elapsed time by design; tests inject a fake clock via Options.nowNanos
	return time.Now().UnixNano()
}

// New builds a gate from o.
func New(o Options) *Gate {
	g := &Gate{
		maxInflight: o.MaxInflight,
		slot:        make(chan struct{}, 1),
		rate:        o.Rate,
		burst:       o.Burst,
		nowNs:       o.nowNanos,
	}
	if g.nowNs == nil {
		g.nowNs = wallNanos
	}
	if g.rate > 0 && g.burst <= 0 {
		g.burst = g.rate
	}
	if g.rate > 0 && g.burst < 1 {
		g.burst = 1
	}
	g.bmu.Lock()
	g.tokens = g.burst
	g.lastNs = g.nowNs()
	g.bmu.Unlock()
	return g
}

// TryAcquire admits n units of work (n <= 0 counts as 1) without blocking,
// or sheds the call with ErrOverload. Every nil return must be paired with
// a Release of the same weight on all paths.
//
// qb5000:noalloc
func (g *Gate) TryAcquire(n int64) error {
	if n <= 0 {
		n = 1
	}
	if !g.admit(n) {
		g.shed.Add(1)
		return ErrOverload
	}
	g.admitted.Add(1)
	return nil
}

// Acquire admits n units (n <= 0 counts as 1), waiting while the gate is
// full until ctx ends. On expiry it sheds: the error unwraps to ErrOverload
// and to ctx.Err().
func (g *Gate) Acquire(ctx context.Context, n int64) error {
	if n <= 0 {
		n = 1
	}
	if g.admit(n) {
		g.admitted.Add(1)
		return nil
	}
	g.queued.Add(1)
	// Release wakeups cover semaphore slots; when a rate limit is active the
	// bucket also refills on its own, so poll it at quarter-token cadence.
	var refill <-chan time.Time
	if g.rate > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second)/g.rate/4) + 1)
		defer t.Stop()
		refill = t.C
	}
	for {
		select {
		case <-ctx.Done():
			g.shed.Add(1)
			return &queueError{cause: ctx.Err()}
		case <-g.slot:
		case <-refill:
		}
		if g.admit(n) {
			g.admitted.Add(1)
			// More than one waiter may fit now; pass the hint along.
			select {
			case g.slot <- struct{}{}:
			default:
			}
			return nil
		}
	}
}

// Release returns n units (n <= 0 counts as 1) admitted by a successful
// TryAcquire or Acquire and wakes one queued waiter.
//
// qb5000:noalloc
func (g *Gate) Release(n int64) {
	if n <= 0 {
		n = 1
	}
	g.inflight.Add(-n)
	// Non-blocking by contract: Release runs on serving paths (the bounded
	// analyzer rejects a send here that could park the request goroutine).
	select {
	case g.slot <- struct{}{}:
	default:
	}
}

// admit is the uncounted core: semaphore first, then the bucket, rolling
// the semaphore back when the bucket is dry.
//
// qb5000:noalloc
func (g *Gate) admit(n int64) bool {
	if !g.trySem(n) {
		return false
	}
	if !g.takeTokens(float64(n)) {
		g.inflight.Add(-n)
		return false
	}
	return true
}

// trySem reserves n units of inflight weight if the cap allows.
//
// qb5000:noalloc
func (g *Gate) trySem(n int64) bool {
	if g.maxInflight <= 0 {
		g.inflight.Add(n)
		return true
	}
	for {
		cur := g.inflight.Load()
		if cur+n > g.maxInflight {
			return false
		}
		if g.inflight.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// takeTokens refills the bucket from elapsed time and spends n tokens if
// available.
//
// qb5000:noalloc
func (g *Gate) takeTokens(n float64) bool {
	if g.rate <= 0 {
		return true
	}
	now := g.nowNs()
	g.bmu.Lock()
	if elapsed := float64(now-g.lastNs) / float64(time.Second); elapsed > 0 {
		g.tokens += elapsed * g.rate
		if g.tokens > g.burst {
			g.tokens = g.burst
		}
		g.lastNs = now
	}
	ok := g.tokens >= n
	if ok {
		g.tokens -= n
	}
	g.bmu.Unlock()
	return ok
}

// Stats snapshots the counters.
func (g *Gate) Stats() Stats {
	return Stats{
		Admitted:    g.admitted.Load(),
		Shed:        g.shed.Load(),
		Queued:      g.queued.Load(),
		Inflight:    g.inflight.Load(),
		MaxInflight: g.maxInflight,
		Rate:        g.rate,
	}
}

// RetryAfterSeconds suggests a client backoff for a shed request, suitable
// for a Retry-After header: the time one admission token takes to refill
// under rate limiting, and 1 second otherwise (inflight pressure clears as
// fast as requests complete).
func (g *Gate) RetryAfterSeconds() int {
	if g.rate > 0 && g.rate < 1 {
		secs := int(1 / g.rate)
		if float64(secs)*g.rate < 1 {
			secs++
		}
		return secs
	}
	return 1
}
