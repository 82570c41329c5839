// Package failpoint is a stdlib-only fault-injection registry for crash
// testing (DESIGN.md §8). Durable-write code compiles named sites into its
// I/O seams with failpoint.Inject; tests and operators arm a site with a
// deterministic schedule — fail on exactly the Nth call, or fail with a
// seeded probability — and prove the code survives a fault there.
//
// The grammar has three layers:
//
//   - Registration: every site name is declared exactly once, at package
//     init, via `var _ = failpoint.Register("pkg.site")`. Register panics on
//     a duplicate so a copy-pasted name fails at startup. The fsx tests
//     hold the rest: TestRegistryMatchesSiteConstants pins the registry to
//     the site constants, TestEveryFailpointAbortsCleanly arms every
//     registered site and requires its fault to surface, and the crash
//     matrix (TestCrashMatrixSaveUnderIngest) fails on a registered site
//     that no Inject reaches.
//   - Injection: `if err := failpoint.Inject("pkg.site"); err != nil {
//     return err }` immediately BEFORE the operation the site models. When
//     the site is disarmed this is a single atomic load and allocates
//     nothing (TestDisarmedFastPath).
//   - Activation: tests call SetNth/SetProb directly; binaries accept a
//     spec via Parse ("fsx.rename=nth:1,fsx.sync=prob:0.01:42") from a
//     -failpoints flag or the QB5000_FAILPOINTS environment variable.
//
// Schedules are deterministic by construction: nth counts calls, prob draws
// from a rand.Rand seeded explicitly (never the global RNG), so a failing
// crash-matrix run replays bit-identically (TestProbIsDeterministicPerSeed)
// — the same property the fit-twice tests demand of model code.
package failpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrInjected is the sentinel every injected fault wraps; callers assert a
// fault with errors.Is(err, failpoint.ErrInjected).
var ErrInjected = errors.New("injected fault")

// An Error is the fault returned by an armed site.
type Error struct {
	// Site is the registered failpoint name that fired.
	Site string
}

func (e *Error) Error() string { return "failpoint " + e.Site + ": injected fault" }

// Unwrap lets errors.Is(err, ErrInjected) see through the site wrapper.
func (e *Error) Unwrap() error { return ErrInjected }

// armed short-circuits Inject while no schedule is active anywhere: the
// disarmed fast path is one atomic load, no lock, no allocation.
var armed atomic.Bool

var (
	registryMu sync.RWMutex
	points     = make(map[string]*point) // guarded by registryMu
)

// Schedule modes for one site.
const (
	modeOff = iota
	modeNth
	modeProb
)

type point struct {
	name string

	// mu guards the schedule: every field below
	// (TestConcurrentInjectIsRaceFree, under -race).
	mu   sync.Mutex
	mode int
	// remaining counts down to the firing call under modeNth.
	remaining int64
	prob      float64
	rng       *rand.Rand
}

// active reports whether the point has an armed schedule.
func (p *point) active() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mode != modeOff
}

// eval advances the schedule by one call and reports whether it fires.
func (p *point) eval() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch p.mode {
	case modeNth:
		p.remaining--
		if p.remaining == 0 {
			return &Error{Site: p.name}
		}
	case modeProb:
		if p.rng.Float64() < p.prob {
			return &Error{Site: p.name}
		}
	}
	return nil
}

// Register declares a failpoint site name. It is meant to seed a
// package-level var at init (`var _ = failpoint.Register(FPRename)`) so the
// registry is complete before main runs; it panics if the name is already
// taken, turning a copy-pasted site name into a startup failure instead of
// a silently shared counter.
func Register(name string) string {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := points[name]; dup {
		panic("failpoint: site " + name + " registered twice")
	}
	points[name] = &point{name: name}
	return name
}

// Inject evaluates the named site's schedule and returns the fault to
// propagate, or nil. Call it immediately before the operation the site
// models; the caller must return a non-nil result, which
// TestEveryFailpointAbortsCleanly and the crash matrix verify for every
// registered site, and errflow rejects a result discarded or assigned to _.
// Disarmed, this is a single atomic load.
func Inject(name string) error {
	if !armed.Load() {
		return nil
	}
	// The armed slow path runs only under fault injection, never in production steady state.
	return fire(name)
}

func fire(name string) error {
	registryMu.RLock()
	p := points[name]
	registryMu.RUnlock()
	if p == nil {
		return nil
	}
	return p.eval()
}

func lookup(name string) *point {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return points[name]
}

// SetNth arms the site to fail on exactly the nth Inject call from now
// (n=1 fails the next call); later calls succeed again.
func SetNth(name string, n int64) error {
	p := lookup(name)
	if p == nil {
		return fmt.Errorf("failpoint: %q is not registered", name)
	}
	if n < 1 {
		return fmt.Errorf("failpoint: %s: nth count must be >= 1, got %d", name, n)
	}
	p.mu.Lock()
	p.mode = modeNth
	p.remaining = n
	p.mu.Unlock()
	armed.Store(true)
	return nil
}

// SetProb arms the site to fail each call independently with probability
// prob, drawn from a dedicated RNG seeded with seed so runs replay
// bit-identically.
func SetProb(name string, prob float64, seed int64) error {
	p := lookup(name)
	if p == nil {
		return fmt.Errorf("failpoint: %q is not registered", name)
	}
	if prob < 0 || prob > 1 {
		return fmt.Errorf("failpoint: %s: probability must be in [0,1], got %g", name, prob)
	}
	p.mu.Lock()
	p.mode = modeProb
	p.prob = prob
	p.rng = rand.New(rand.NewSource(seed))
	p.mu.Unlock()
	armed.Store(true)
	return nil
}

// Clear disarms one site, leaving it registered.
func Clear(name string) error {
	p := lookup(name)
	if p == nil {
		return fmt.Errorf("failpoint: %q is not registered", name)
	}
	p.mu.Lock()
	p.mode = modeOff
	p.mu.Unlock()
	if !anyActive() {
		armed.Store(false)
	}
	return nil
}

// Reset disarms every site and restores the zero-overhead fast path.
func Reset() {
	for _, name := range Registered() {
		p := lookup(name)
		p.mu.Lock()
		p.mode = modeOff
		p.mu.Unlock()
	}
	armed.Store(false)
}

// anyActive reports whether any registered site still has a schedule.
func anyActive() bool {
	for _, name := range Registered() {
		if lookup(name).active() {
			return true
		}
	}
	return false
}

// Registered returns every declared site name, sorted.
func Registered() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(points))
	for name := range points {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// EnvVar is the environment variable ParseEnv reads a failpoint spec from.
const EnvVar = "QB5000_FAILPOINTS"

// ParseEnv arms sites from the QB5000_FAILPOINTS environment variable.
// Binaries call it from main (not init) so every Register has already run.
func ParseEnv() error {
	return Parse(os.Getenv(EnvVar))
}

// Parse arms sites from a comma-separated spec:
//
//	site=nth:N          fail the Nth call
//	site=prob:P:SEED    fail each call with probability P, RNG seeded SEED
//
// e.g. "fsx.rename=nth:1,fsx.sync=prob:0.01:42". An empty spec is a no-op.
func Parse(spec string) error {
	if spec == "" {
		return nil
	}
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		name, sched, ok := strings.Cut(term, "=")
		if !ok {
			return fmt.Errorf("failpoint: bad term %q: want site=nth:N or site=prob:P:SEED", term)
		}
		kind, rest, _ := strings.Cut(sched, ":")
		switch kind {
		case "nth":
			n, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return fmt.Errorf("failpoint: bad nth count in %q: %w", term, err)
			}
			if err := SetNth(name, n); err != nil {
				return err
			}
		case "prob":
			ps, ss, ok := strings.Cut(rest, ":")
			if !ok {
				return fmt.Errorf("failpoint: bad term %q: prob needs a seed (site=prob:P:SEED)", term)
			}
			prob, err := strconv.ParseFloat(ps, 64)
			if err != nil {
				return fmt.Errorf("failpoint: bad probability in %q: %w", term, err)
			}
			seed, err := strconv.ParseInt(ss, 10, 64)
			if err != nil {
				return fmt.Errorf("failpoint: bad seed in %q: %w", term, err)
			}
			if err := SetProb(name, prob, seed); err != nil {
				return err
			}
		default:
			return fmt.Errorf("failpoint: unknown schedule %q in %q (want nth or prob)", kind, term)
		}
	}
	return nil
}
