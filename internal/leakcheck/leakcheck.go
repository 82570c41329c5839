// Package leakcheck verifies in tests that a block of code does not leak
// goroutines, by comparing runtime goroutine counts around the code under
// test. A goroutine with no termination path (the daemon's maintain loop
// ignoring its context, a pool worker that never drains) shows up as a
// count that never settles. The one leak shape a count cannot see — a
// goroutine spawned per trip of an unbounded loop that ends at once — is
// qb5000vet's goleak rule.
//
// The check is count-based, not identity-based, so it needs no runtime
// internals and stays stdlib-only. Counts are noisy — the runtime starts
// and retires goroutines of its own, and goroutines wound down by the code
// under test (pool workers draining, http servers closing keep-alive
// connections) take a moment to exit — so the comparison retries on a
// fixed backoff schedule and only fails once the count stays elevated
// through the whole window.
package leakcheck

import (
	"runtime"
	"time"
)

// testingT is the subset of *testing.T the checker needs; an interface so
// the package never imports "testing" into non-test builds of its callers.
type testingT interface {
	Helper()
	Errorf(format string, args ...any)
}

// retries and step bound the settle window: 200 polls 10ms apart, two
// seconds total. The window is deliberately counted sleeps rather than a
// wall-clock deadline (time.Now is reserved for trace timestamps here;
// qb5000vet:noclock enforces that) — under CI scheduling jitter a counted
// schedule stretches with the machine instead of timing out early.
const (
	retries = 200
	step    = 10 * time.Millisecond
)

// Check runs fn and fails t if the goroutine count has not returned to its
// starting level after fn returns and the settle window elapses. Use it
// around code that starts pools, servers, or watchdogs:
//
//	leakcheck.Check(t, func() {
//		pool := startPool()
//		pool.Shutdown()
//	})
func Check(t testingT, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	fn()
	settle(t, before)
}

// Snapshot captures the current goroutine count for a deferred check:
//
//	defer leakcheck.Snapshot(t).Done()
type Snapshot struct {
	t      testingT
	before int
}

// Take records the goroutine count before the code under test runs.
func Take(t testingT) *Snapshot {
	t.Helper()
	return &Snapshot{t: t, before: runtime.NumGoroutine()}
}

// Done fails the test if the goroutine count is still above the snapshot
// after the settle window.
func (s *Snapshot) Done() {
	s.t.Helper()
	settle(s.t, s.before)
}

// settle polls until the goroutine count drops back to the baseline or the
// window is exhausted, then reports the leak with a stack dump of every
// live goroutine so the leaked one is identifiable.
func settle(t testingT, before int) {
	t.Helper()
	var after int
	for i := 0; i < retries; i++ {
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
		time.Sleep(step)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Errorf("leakcheck: %d goroutine(s) before, %d after settle window; live stacks:\n%s",
		before, after, buf)
}
