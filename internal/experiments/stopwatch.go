package experiments

import "time"

// A stopwatch measures the wall-clock duration of one experiment phase
// (training time, per-query cost). Every wall-clock read of the package goes
// through it, so the noclock audit has one place to look; trace time — the
// timestamps the models see — never comes from here.
type stopwatch struct{ start time.Time }

func startStopwatch() stopwatch {
	//lint:ignore noclock wall-clock timing of a phase is the experiment's measurement
	return stopwatch{start: time.Now()}
}

func (s stopwatch) elapsed() time.Duration {
	//lint:ignore noclock wall-clock timing of a phase is the experiment's measurement
	return time.Since(s.start)
}
