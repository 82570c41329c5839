package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qb5000/internal/leakcheck"
)

func TestWorkers(t *testing.T) {
	tests := []struct {
		name string
		in   int
		want int
	}{
		{"zero selects GOMAXPROCS", 0, runtime.GOMAXPROCS(0)},
		{"negative selects GOMAXPROCS", -3, runtime.GOMAXPROCS(0)},
		{"one stays one", 1, 1},
		{"explicit value honored", 7, 7},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Workers(tc.in); got != tc.want {
				t.Fatalf("Workers(%d) = %d, want %d", tc.in, got, tc.want)
			}
		})
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	tests := []struct {
		name    string
		workers int
		n       int
	}{
		{"empty input", 4, 0},
		{"negative n", 4, -2},
		{"sequential", 1, 17},
		{"single item", 8, 1},
		{"more workers than items", 16, 3},
		{"more items than workers", 3, 64},
		{"default workers", 0, 32},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			counts := make([]atomic.Int32, max(tc.n, 0))
			err := ForEach(context.Background(), tc.workers, tc.n, func(_ context.Context, i int) error {
				counts[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("ForEach: %v", err)
			}
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("index %d ran %d times, want 1", i, got)
				}
			}
		})
	}
}

func TestForEachErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	tests := []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", 4},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var cancelled atomic.Bool
			err := ForEach(context.Background(), tc.workers, 32, func(ctx context.Context, i int) error {
				if i == 3 {
					return fmt.Errorf("index 3: %w", sentinel)
				}
				// Workers that started after the failure must observe the
				// shared context being cancelled.
				select {
				case <-ctx.Done():
					cancelled.Store(true)
				case <-time.After(50 * time.Millisecond):
				}
				return nil
			})
			if !errors.Is(err, sentinel) {
				t.Fatalf("err = %v, want wrapped sentinel", err)
			}
			if tc.workers > 1 && !cancelled.Load() {
				t.Error("expected at least one worker to observe cancellation")
			}
		})
	}
}

func TestForEachFirstErrorWins(t *testing.T) {
	// Only one error may be reported even when many indices fail.
	var failures atomic.Int32
	err := ForEach(context.Background(), 8, 64, func(_ context.Context, i int) error {
		failures.Add(1)
		return fmt.Errorf("fail %d", i)
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		t.Fatalf("plain error reported as panic: %v", err)
	}
}

func TestForEachPanicRecovery(t *testing.T) {
	tests := []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", 4},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := ForEach(context.Background(), tc.workers, 8, func(_ context.Context, i int) error {
				if i == 2 {
					panic("kaboom")
				}
				return nil
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *PanicError", err)
			}
			if pe.Value != "kaboom" {
				t.Errorf("panic value = %v, want kaboom", pe.Value)
			}
			if len(pe.Stack) == 0 {
				t.Error("panic error lost its stack")
			}
		})
	}
}

func TestForEachBoundedConcurrency(t *testing.T) {
	defer leakcheck.Take(t).Done()
	const workers = 3
	var cur, peak atomic.Int32
	err := ForEach(context.Background(), workers, 50, func(_ context.Context, i int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent workers, bound is %d", p, workers)
	}
}

func TestForEachParentCancellation(t *testing.T) {
	defer leakcheck.Take(t).Done()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	var once sync.Once
	err := ForEach(ctx, 2, 1000, func(ctx context.Context, i int) error {
		started.Add(1)
		once.Do(cancel)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := started.Load(); s == 1000 {
		t.Error("cancellation did not stop the pool early")
	}
}

func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 4, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			leakcheck.Check(t, func() {
				const n = 100
				counts := make([]atomic.Int32, n)
				Each(workers, n, func(i int) {
					counts[i].Add(1)
				})
				for i := range counts {
					if c := counts[i].Load(); c != 1 {
						t.Fatalf("index %d ran %d times, want exactly once", i, c)
					}
				}
			})
		})
	}
}

func TestEachInlinePath(t *testing.T) {
	// workers == 1 must run in index order on the calling goroutine.
	var order []int
	Each(1, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("inline Each out of order: %v", order)
		}
	}
	// n <= 0 is a no-op.
	Each(4, 0, func(i int) { t.Fatal("fn must not run for n == 0") })
}
