package failpoint

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// The registry is process-global and has no Unregister, so the test sites
// are registered once per process (go test -count=N reruns the tests in
// one process) and each test resets schedules on exit.
var _ = []string{
	Register("test.nth"),
	Register("test.prob"),
	Register("test.fast"),
	Register("test.clear"),
	Register("test.parse-a"),
	Register("test.parse-b"),
	Register("test.race"),
}

// dupRuns numbers TestRegisterDuplicatePanics' runs, so each run registers
// a name no earlier run has.
var dupRuns int

func TestRegisterDuplicatePanics(t *testing.T) {
	dupRuns++
	name := fmt.Sprintf("test.dup.%d", dupRuns)
	Register(name)
	defer func() {
		if recover() == nil {
			t.Fatal("second Register of the same name did not panic")
		}
	}()
	Register(name)
}

func TestNthFiresExactlyOnce(t *testing.T) {
	defer Reset()
	if err := SetNth("test.nth", 3); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		err := Inject("test.nth")
		if i == 3 {
			if err == nil {
				t.Fatalf("call %d: expected injected fault", i)
			}
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("call %d: %v does not wrap ErrInjected", i, err)
			}
			var fe *Error
			if !errors.As(err, &fe) || fe.Site != "test.nth" {
				t.Fatalf("call %d: error %v does not carry the site name", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("call %d: unexpected fault %v", i, err)
		}
	}
}

func TestProbIsDeterministicPerSeed(t *testing.T) {
	defer Reset()
	run := func(seed int64) []bool {
		if err := SetProb("test.prob", 0.5, seed); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = Inject("test.prob") != nil
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("prob 0.5 fired %d/%d times; schedule looks degenerate", fired, len(a))
	}
}

func TestDisarmedFastPath(t *testing.T) {
	Reset()
	if err := Inject("test.fast"); err != nil {
		t.Fatalf("disarmed site injected %v", err)
	}
	if err := Inject("test.never-registered"); err != nil {
		t.Fatalf("unregistered site injected %v", err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		_ = Inject("test.fast")
	})
	if allocs != 0 {
		t.Fatalf("disarmed Inject allocates %.1f/op; the disarmed fast path must not allocate", allocs)
	}
}

func TestClearAndResetDisarm(t *testing.T) {
	defer Reset()
	if err := SetNth("test.clear", 1); err != nil {
		t.Fatal(err)
	}
	if err := Clear("test.clear"); err != nil {
		t.Fatal(err)
	}
	if err := Inject("test.clear"); err != nil {
		t.Fatalf("cleared site injected %v", err)
	}
	if err := SetNth("test.clear", 1); err != nil {
		t.Fatal(err)
	}
	Reset()
	if err := Inject("test.clear"); err != nil {
		t.Fatalf("reset site injected %v", err)
	}
}

func TestSetOnUnregisteredErrors(t *testing.T) {
	if err := SetNth("test.ghost", 1); err == nil {
		t.Fatal("SetNth on an unregistered site succeeded")
	}
	if err := SetProb("test.ghost", 0.5, 1); err == nil {
		t.Fatal("SetProb on an unregistered site succeeded")
	}
	if err := Clear("test.ghost"); err == nil {
		t.Fatal("Clear on an unregistered site succeeded")
	}
}

func TestParse(t *testing.T) {
	defer Reset()
	if err := Parse("test.parse-a=nth:1, test.parse-b=prob:1:9"); err != nil {
		t.Fatal(err)
	}
	if err := Inject("test.parse-a"); err == nil {
		t.Fatal("nth:1 site did not fire on first call")
	}
	if err := Inject("test.parse-b"); err == nil {
		t.Fatal("prob:1 site did not fire")
	}
	for _, bad := range []string{
		"no-equals",
		"test.parse-a=wat:1",
		"test.parse-a=nth:x",
		"test.parse-a=prob:0.5",
		"test.parse-a=prob:x:1",
		"test.parse-a=prob:0.5:x",
		"test.ghost=nth:1",
	} {
		if err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) succeeded", bad)
		}
	}
	if err := Parse(""); err != nil {
		t.Fatalf("empty spec errored: %v", err)
	}
}

func TestConcurrentInjectIsRaceFree(t *testing.T) {
	defer Reset()
	if err := SetNth("test.race", 50); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = Inject("test.race")
			}
		}()
	}
	wg.Wait()
}
