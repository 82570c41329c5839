//go:build !race

package nn

// raceEnabled reports whether the race detector instrumented this build.
const raceEnabled = false
