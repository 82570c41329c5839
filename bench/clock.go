package main

import "time"

// Every wall-clock read of the benchmark goes through this file, so the
// noclock audit has one place to look. Simulated trace time (the timestamps
// on generated lines) never comes from here.

// processStart anchors the monotonic clock.
//
//lint:ignore noclock the benchmark's measurements are wall-clock durations; this is its one clock
var processStart = time.Now()

// nowNS returns monotonic nanoseconds since the benchmark started.
func nowNS() int64 {
	//lint:ignore noclock the benchmark's measurements are wall-clock durations; this is its one clock
	return int64(time.Since(processStart))
}

// secondsSince converts a nowNS reading to elapsed seconds.
func secondsSince(startNS int64) float64 {
	return float64(nowNS()-startNS) / 1e9
}

// sleepUntilNS blocks until the monotonic clock reaches ns.
func sleepUntilNS(ns int64) {
	if d := ns - nowNS(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}
