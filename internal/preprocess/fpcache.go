package preprocess

import (
	"sync"
	"sync/atomic"

	"qb5000/internal/sqlparse"
)

// The fingerprint cache maps raw SQL bytes to the template they last
// templatized to, so the observe hot path can skip lex/parse/normalize
// entirely for repeated query text. Production traffic is massively
// repetitive — the same literal byte strings arrive millions of times — and
// templatization is ~90 % of an observe, so a hit turns an ~11.7 µs observe
// into a few hundred ns.
//
// The cache is pure derived state. Every entry carries everything fold needs
// beyond the template itself (the pre-rendered parameter literals, the batch
// size, the statement type), all captured from the entry's one real parse, so
// a hit performs bit-for-bit the same catalog mutations a miss would: same
// history records, same reservoir stream, same counters. Enabling the cache
// therefore never changes the catalog, which is why snapshots exclude it and
// stay byte-identical across cache settings and stripe layouts.
//
// Coherence: entries are invalidated when Maintain evicts their template
// (the sweep in invalidateIDs), and the hit path additionally re-checks the
// template is still live in its stripe's byID index before folding — a stale
// entry can therefore never resurrect a dead template ID; it falls back to a
// full re-templatize, which refreshes the entry.
//
// Like the catalog, the cache is split into power-of-two hash shards (FNV-1a
// of the raw bytes) so concurrent observers of different queries do not
// contend; lookups take only a read lock. Each shard is entry-count-bounded
// and evicts with a clock hand: a hit sets the entry's reference bit, the
// hand clears bits until it finds a cold entry to replace.
type fpCache struct {
	shards    []fpShard
	mask      uint64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// fpShard is one stripe of the fingerprint cache.
type fpShard struct {
	// mu guards every field below.
	mu sync.RWMutex
	// entries maps raw SQL to its cache entry.
	entries map[string]*fpEntry
	// slots is the fixed clock ring; nil slots are free.
	slots []*fpEntry
	// free stacks the indices of nil slots.
	free []int
	// hand is the clock hand position.
	hand int
}

// fpEntry is one cached raw-SQL→template mapping. All fields except ref are
// immutable after insertion; refreshing a mapping replaces the whole entry.
type fpEntry struct {
	// raw is the cache key, kept for map deletion on eviction.
	raw string
	// id is the template ID the raw text folded into.
	id int64
	// stripe is the catalog stripe owning the template (the semantic key's
	// home stripe — identical raw bytes always re-templatize to the same
	// key, so this can never go stale).
	stripe int
	// slot is the entry's position in its shard's clock ring.
	slot int
	// vals are the parameter literals rendered exactly as Template.Record
	// would render them, captured from the entry's one real parse.
	vals []string
	// batch is the TemplatizeResult.BatchSize (VALUES tuples per statement).
	batch int64
	// stmt is the statement type for the per-type counters.
	stmt sqlparse.StatementType
	// ref is the clock reference bit; lookups set it under the shard's read
	// lock, so concurrent setters need the atomic.
	ref atomic.Uint32
}

// newFPCache builds a cache bounded to totalEntries across nshards hash
// shards (both already powers of two where it matters); nil when disabled.
func newFPCache(totalEntries, nshards int) *fpCache {
	if totalEntries <= 0 {
		return nil
	}
	if nshards > totalEntries {
		nshards = shardCount(totalEntries)
		for nshards > totalEntries {
			nshards >>= 1
		}
		if nshards < 1 {
			nshards = 1
		}
	}
	per := (totalEntries + nshards - 1) / nshards
	c := &fpCache{shards: make([]fpShard, nshards), mask: uint64(nshards - 1)}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[string]*fpEntry, per)
		sh.slots = make([]*fpEntry, per)
		sh.free = make([]int, per)
		for j := range sh.free {
			sh.free[j] = per - 1 - j // pop order 0,1,2,… for determinism
		}
		sh.mu.Unlock()
	}
	return c
}

// rawHash is FNV-1a over the raw query bytes: one pass, no allocation.
func rawHash(raw string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(raw); i++ {
		h ^= uint64(raw[i])
		h *= 1099511628211
	}
	return h
}

func (c *fpCache) shardFor(raw string) *fpShard {
	return &c.shards[rawHash(raw)&c.mask]
}

// lookup returns the live entry for raw, marking it recently used, or nil.
// Counter accounting is the caller's job: a lookup hit can still turn into a
// logical miss if the template was evicted underneath the entry.
func (c *fpCache) lookup(raw string) *fpEntry {
	sh := c.shardFor(raw)
	sh.mu.RLock()
	e := sh.entries[raw]
	if e != nil {
		e.ref.Store(1)
	}
	sh.mu.RUnlock()
	return e
}

// insert records raw→(id, stripe, …), replacing any existing mapping for the
// same raw text in place and clock-evicting a cold entry when the shard is
// full.
func (c *fpCache) insert(raw string, id int64, stripe int, vals []string, batch int64, stmt sqlparse.StatementType) {
	sh := c.shardFor(raw)
	e := &fpEntry{raw: raw, id: id, stripe: stripe, vals: vals, batch: batch, stmt: stmt}
	e.ref.Store(1)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if old, ok := sh.entries[raw]; ok {
		e.slot = old.slot
		sh.slots[e.slot] = e
		sh.entries[raw] = e
		return
	}
	var slot int
	switch {
	case len(sh.free) > 0:
		slot = sh.free[len(sh.free)-1]
		sh.free = sh.free[:len(sh.free)-1]
	default:
		// Clock sweep: second-chance for referenced entries. With every bit
		// set the hand wraps once, clearing as it goes, and takes the slot it
		// started at — the loop always terminates within 2×len(slots) steps.
		for {
			victim := sh.slots[sh.hand]
			if victim.ref.Load() != 0 {
				victim.ref.Store(0)
				sh.hand = (sh.hand + 1) % len(sh.slots)
				continue
			}
			delete(sh.entries, victim.raw)
			c.evictions.Add(1)
			slot = sh.hand
			sh.hand = (sh.hand + 1) % len(sh.slots)
			break
		}
	}
	e.slot = slot
	sh.slots[slot] = e
	sh.entries[raw] = e
}

// invalidate drops the mapping for raw if it still points at entry e (a
// concurrent refresh may already have replaced it).
func (c *fpCache) invalidate(raw string, e *fpEntry) {
	sh := c.shardFor(raw)
	sh.mu.Lock()
	if cur, ok := sh.entries[raw]; ok && cur == e {
		sh.slots[cur.slot] = nil
		sh.free = append(sh.free, cur.slot)
		delete(sh.entries, raw)
	}
	sh.mu.Unlock()
}

// invalidateIDs sweeps every shard, dropping entries whose template ID was
// just evicted from the catalog. Maintain calls this after its eviction pass
// so the cache never outlives the templates it points at.
func (c *fpCache) invalidateIDs(ids map[int64]struct{}) {
	if len(ids) == 0 {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for slot, e := range sh.slots {
			if e == nil {
				continue
			}
			if _, dead := ids[e.id]; dead {
				delete(sh.entries, e.raw)
				sh.slots[slot] = nil
				sh.free = append(sh.free, slot)
			}
		}
		sh.mu.Unlock()
	}
}

// len reports the live entry count across shards (test/introspection only).
func (c *fpCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}
