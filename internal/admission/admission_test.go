package admission

import (
	"errors"
	"sync"
	"testing"
	"time"

	"qb5000/internal/leakcheck"
)

// fakeClock is a deterministic nanosecond clock for the token bucket.
type fakeClock struct {
	mu sync.Mutex
	ns int64
}

func (c *fakeClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ns
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.ns += int64(d)
	c.mu.Unlock()
}

func TestTryAcquireSemaphore(t *testing.T) {
	g := New(Options{MaxInflight: 2})
	if err := g.TryAcquire(1); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if err := g.TryAcquire(1); err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	if err := g.TryAcquire(1); !errors.Is(err, ErrOverload) {
		t.Fatalf("third acquire = %v, want ErrOverload", err)
	}
	g.Release(1)
	if err := g.TryAcquire(1); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	s := g.Stats()
	if s.Admitted != 3 || s.Shed != 1 || s.Inflight != 2 {
		t.Fatalf("stats = %+v, want admitted 3, shed 1, inflight 2", s)
	}
}

func TestTryAcquireWeighted(t *testing.T) {
	g := New(Options{MaxInflight: 3})
	if err := g.TryAcquire(2); err != nil {
		t.Fatalf("acquire 2: %v", err)
	}
	if err := g.TryAcquire(2); !errors.Is(err, ErrOverload) {
		t.Fatalf("second acquire 2 = %v, want ErrOverload", err)
	}
	if err := g.TryAcquire(1); err != nil {
		t.Fatalf("acquire 1 into remaining slot: %v", err)
	}
	g.Release(2)
	g.Release(1)
	if got := g.Stats().Inflight; got != 0 {
		t.Fatalf("inflight after releases = %d, want 0", got)
	}
}

func TestTokenBucketRate(t *testing.T) {
	clk := &fakeClock{}
	g := New(Options{Rate: 10, Burst: 2, nowNanos: clk.now})
	if err := g.TryAcquire(1); err != nil {
		t.Fatalf("first: %v", err)
	}
	if err := g.TryAcquire(1); err != nil {
		t.Fatalf("second (burst): %v", err)
	}
	if err := g.TryAcquire(1); !errors.Is(err, ErrOverload) {
		t.Fatalf("third = %v, want ErrOverload (bucket dry)", err)
	}
	clk.advance(100 * time.Millisecond) // one token at 10/s
	if err := g.TryAcquire(1); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	// Refill is capped at the burst.
	clk.advance(time.Hour)
	if err := g.TryAcquire(1); err != nil {
		t.Fatal(err)
	}
	if err := g.TryAcquire(1); err != nil {
		t.Fatal(err)
	}
	if err := g.TryAcquire(1); !errors.Is(err, ErrOverload) {
		t.Fatalf("burst cap not enforced: %v", err)
	}
	g.Release(1)
}

func TestUnlimitedGate(t *testing.T) {
	g := New(Options{})
	for i := 0; i < 100; i++ {
		if err := g.TryAcquire(1); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	if got := g.Stats().Inflight; got != 100 {
		t.Fatalf("inflight = %d, want 100", got)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	if got := New(Options{MaxInflight: 1}).RetryAfterSeconds(); got != 1 {
		t.Fatalf("inflight-only gate: %d, want 1", got)
	}
	if got := New(Options{Rate: 0.25}).RetryAfterSeconds(); got != 4 {
		t.Fatalf("rate 0.25: %d, want 4", got)
	}
	if got := New(Options{Rate: 100}).RetryAfterSeconds(); got != 1 {
		t.Fatalf("rate 100: %d, want 1", got)
	}
}

// TestFastPathAllocs is the allocation gate of TryAcquire/Release: the
// admit/shed fast path must not allocate, including the shed return of the
// ErrOverload sentinel.
func TestFastPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	clk := &fakeClock{}
	g := New(Options{MaxInflight: 1, Rate: 1e9, nowNanos: clk.now})
	allocs := testing.AllocsPerRun(1000, func() {
		clk.advance(time.Microsecond)
		if err := g.TryAcquire(1); err != nil {
			t.Fatal(err)
		}
		if err := g.TryAcquire(1); err == nil { // full: shed path
			t.Fatal("expected overload")
		}
		g.Release(1)
	})
	if allocs > 0 {
		t.Errorf("TryAcquire/Release fast path allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestConcurrentAccounting(t *testing.T) {
	leakcheck.Check(t, func() {
		g := New(Options{MaxInflight: 4})
		const goroutines, per = 8, 200
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < per; j++ {
					if err := g.TryAcquire(1); err == nil {
						g.Release(1)
					}
				}
			}()
		}
		wg.Wait()
		s := g.Stats()
		if s.Admitted+s.Shed != goroutines*per {
			t.Fatalf("admitted %d + shed %d != %d calls", s.Admitted, s.Shed, goroutines*per)
		}
		if s.Inflight != 0 {
			t.Fatalf("inflight = %d after all releases, want 0", s.Inflight)
		}
	})
}
