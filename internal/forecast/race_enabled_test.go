//go:build race

package forecast

// raceEnabled reports whether the race detector instrumented this build.
// Allocation-count assertions are skipped under -race: the detector adds
// shadow allocations that would make AllocsPerRun budgets meaningless.
const raceEnabled = true
