package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLockSummaryBits checks the HeldAtExit summary — the lock()-helper
// shape, propagated over static call edges — and its one reader: guardedby
// counts a helper-taken lock as held until the caller's own Unlock.
func TestLockSummaryBits(t *testing.T) {
	pkg := checkStubbed(t, `package p
import "sync"
type H struct {
	mu sync.Mutex
	// qb5000:guardedby mu
	n int
}
func (h *H) lock()        { h.mu.Lock() }
func (h *H) lockViaCall() { h.lock() }
func (h *H) balanced()    { h.mu.Lock(); h.mu.Unlock() }
func (h *H) Use() int {
	h.lockViaCall()
	h.n++
	h.mu.Unlock()
	return h.n
}
`)
	prog := NewProgram([]*Package{pkg})
	sum := func(id string) *FuncSummary {
		t.Helper()
		s := prog.Summary("fixture/engine." + id)
		if s == nil {
			t.Fatalf("no summary for %s", id)
		}
		return s
	}
	if !sum("(H).lock").HeldAtExit["p.H.mu"] {
		t.Error("(*H).lock must have HeldAtExit[p.H.mu]")
	}
	if !sum("(H).lockViaCall").HeldAtExit["p.H.mu"] {
		t.Error("(*H).lockViaCall must inherit HeldAtExit[p.H.mu] from lock")
	}
	if len(sum("(H).balanced").HeldAtExit) != 0 {
		t.Errorf("balanced releases what it takes; HeldAtExit = %v", sum("(H).balanced").HeldAtExit)
	}
	if len(sum("(H).Use").HeldAtExit) != 0 {
		t.Errorf("Use unlocks what its helper took; HeldAtExit = %v", sum("(H).Use").HeldAtExit)
	}
	findings := prog.Run(pkg, []*Analyzer{GuardedBy})
	if len(findings) != 1 || findings[0].Pos.Line != 15 || !strings.Contains(findings[0].Message, "without holding h.mu") {
		t.Errorf("want only the access after Unlock (line 15) reported, got %v", findings)
	}
}

// TestAllocatesSummary checks the Allocates bit over the noalloc fixture:
// plainly allocating helpers are marked, clean leaves are not.
func TestAllocatesSummary(t *testing.T) {
	pkg, err := LoadFixture(filepath.Join("testdata", "src", "noalloc"), "fixture/noalloc")
	if err != nil {
		t.Fatalf("loading noalloc fixture: %v", err)
	}
	prog := NewProgram([]*Package{pkg})
	sum := func(id string) *FuncSummary {
		t.Helper()
		s := prog.Summary("fixture/noalloc." + id)
		if s == nil {
			t.Fatalf("no summary for %s", id)
		}
		return s
	}
	if !sum("makeSlice").Allocates {
		t.Error("makeSlice must have Allocates (make)")
	}
	if !sum("callsHelper").Allocates {
		t.Error("callsHelper must inherit Allocates from makeSlice")
	}
	if sum("leaf").Allocates {
		t.Error("leaf must not have Allocates")
	}
	if sum("appendParam").Allocates {
		t.Error("appendParam appends into caller-owned backing; must not have Allocates")
	}
}
