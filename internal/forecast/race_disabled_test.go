//go:build !race

package forecast

// raceEnabled reports whether the race detector instrumented this build.
const raceEnabled = false
