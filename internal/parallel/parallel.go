// Package parallel provides the bounded worker pool the pipeline's hot
// paths share: per-horizon model training in core, the clusterer's
// similarity scans and centroid updates, and the experiment fan-out.
//
// The pool is deliberately minimal: callers describe work as n independent
// indices and the pool runs them on up to `workers` goroutines. The first
// error cancels the remaining work, panics inside workers are recovered and
// surfaced as errors, and a cancelled context stops new indices from
// starting. Determinism is the caller's job — the contract here is only that
// every index in [0, n) runs at most once and that results written to
// per-index slots never race.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism knob: values <= 0 select GOMAXPROCS
// (use every core), 1 forces sequential execution, and larger values are
// honored as given.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// PanicError wraps a panic recovered from a pool worker so it propagates as
// an ordinary error instead of tearing down the process from a goroutine.
type PanicError struct {
	// Value is the value the worker panicked with.
	Value any
	// Stack is the worker's stack at the point of the panic.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", e.Value, e.Stack)
}

// ForEach runs fn(ctx, i) for every i in [0, n) on up to workers goroutines
// (workers resolved via Workers). The first failure wins: its error is
// returned, the shared context passed to fn is cancelled, and unstarted
// indices are skipped. If the parent context is cancelled first, ForEach
// returns its error. With workers == 1 (or n == 1) the work runs inline on
// the calling goroutine in index order, checking ctx between items — the
// exact sequential semantics Parallelism: 1 promises.
//
// qb5000:bounded the fleet is capped at Workers(workers) and joined before return
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := protect(ctx, i, fn); err != nil {
				return err
			}
		}
		return nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	p := &pool{cancel: cancel}
	p.wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer p.wg.Done()
			for {
				i := p.claim()
				if i >= n || wctx.Err() != nil {
					return
				}
				if err := protect(wctx, i, fn); err != nil {
					p.fail(err)
					return
				}
			}
		}()
	}
	p.wg.Wait()
	if err := p.err(); err != nil {
		return err
	}
	// The pool may have stopped early because the parent was cancelled.
	return ctx.Err()
}

// Each runs fn(i) for every i in [0, n) on up to workers goroutines
// (workers resolved via Workers). It is the infallible sibling of ForEach
// for work that cannot fail and needs no cancellation — gradient
// accumulation, feature extraction, metric folds — where threading a
// context.Background() through ForEach and discarding its always-nil error
// only obscures the contract. Panics are not recovered: a panicking fn is a
// caller bug and tears down the process, exactly as it would serially. With
// workers == 1 (or n == 1) the work runs inline in index order.
//
// qb5000:bounded the fleet is capped at Workers(workers) and joined before return
func Each(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// pool is the shared dispatch state of one concurrent ForEach run. The
// atomic fields are shared by every worker goroutine and may only be
// touched through their methods (go vet's copylocks check rejects a copy).
type pool struct {
	next     atomic.Int64          // next index to claim
	firstErr atomic.Pointer[error] // first worker failure, wins the race once

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// claim hands out the next unstarted index.
func (p *pool) claim() int { return int(p.next.Add(1) - 1) }

// fail records err if it is the first failure and cancels the pool context
// so the remaining workers stop claiming indices.
func (p *pool) fail(err error) {
	e := err
	if p.firstErr.CompareAndSwap(nil, &e) {
		p.cancel()
	}
}

// err returns the first recorded worker failure, if any.
func (p *pool) err() error {
	if e := p.firstErr.Load(); e != nil {
		return *e
	}
	return nil
}

// protect invokes fn(ctx, i), converting a panic into a *PanicError.
func protect(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 8192)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Value: r, Stack: buf}
		}
	}()
	return fn(ctx, i)
}
