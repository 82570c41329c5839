// Package goleakfix exercises the goleak analyzer: a goroutine spawned
// inside an unbounded loop is a leak amplifier.
package goleakfix

func handle() {}

// spawnPerMessage leaks one goroutine per message, forever.
func spawnPerMessage(jobs chan int) {
	for range jobs {
		go handle() // want "unbounded loop"
	}
}

// spawnForever spawns in a bare infinite loop.
func spawnForever() {
	for {
		go handle() // want "unbounded loop"
	}
}

// spawnPerTick spawns a goroutine that ends at once, once per tick: no
// goroutine count sees it, the loop rule does.
func spawnPerTick(ticks chan int, done chan struct{}) {
	for {
		select {
		case <-done:
			return
		case <-ticks:
			go handle() // want "unbounded loop"
		}
	}
}

// spawnPerItem is bounded by the slice length: fine.
func spawnPerItem(items []int) {
	for range items {
		go handle()
	}
}

// spawnBoundedPool is the counted worker-pool shape: fine.
func spawnBoundedPool(n int) {
	for g := 0; g < n; g++ {
		go handle()
	}
}
