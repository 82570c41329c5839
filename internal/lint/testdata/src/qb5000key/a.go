// Package qb5000key exercises annotation-key hygiene: a typo'd qb5000: key
// must be reported instead of silently voiding the contract it meant to
// declare.
package qb5000key

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

// qb5000:noalock the fast path must stay allocation-free // want "unknown qb5000: annotation key"
func (c *counter) bump() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}
