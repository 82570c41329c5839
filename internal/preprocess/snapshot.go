package preprocess

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"time"

	"qb5000/internal/sqlparse"
	"qb5000/internal/timeseries"
)

// Catalog snapshots persist the Pre-Processor's state — the paper's QB5000
// stores templates and arrival histories in an internal database so the
// framework survives restarts (§3). Derived state (clusters, models) is
// rebuilt by the next maintenance pass after a restore.
//
// Snapshots are canonical and layout-independent: templates are serialized
// in sorted semantic-key order with IDs remapped to 1..N in that order, the
// stripe count is not persisted, and the per-type counters are stored as a
// sorted slice (gob encodes maps in random iteration order). Two catalogs
// that folded the same queries in the same order therefore produce
// byte-identical snapshots regardless of how many shards either used.

// snapshotVersion guards the gob wire format. Version 2 introduced the
// canonical form (remapped IDs, flattened deterministic stats) alongside the
// sharded catalog.
const snapshotVersion = 2

type snapshotDTO struct {
	Version   int
	Opts      Options
	Stats     statsDTO
	Templates []templateDTO
}

// statsDTO flattens Stats for serialization with a deterministic encoding.
type statsDTO struct {
	TotalQueries int64
	ParseErrors  int64
	ByType       []typeCountDTO
}

type typeCountDTO struct {
	Type  sqlparse.StatementType
	Count int64
}

type templateDTO struct {
	ID                  int64
	SQL                 string
	Key                 string
	History             []byte // timeseries.History binary form
	ReservoirItems      [][]string
	ReservoirSeen       int64
	FirstSeen, LastSeen time.Time
	Count, Tuples       int64
}

// Snapshot serializes the catalog in canonical form. The reservoir's RNG
// position is not preserved exactly; after a restore, sampling continues
// with a seed derived from the observed count, which keeps samples uniform
// but not bit-identical to an uninterrupted run. Each stripe is captured
// atomically; for a snapshot that reflects one exact instant, quiesce ingest
// first.
func (p *Preprocessor) Snapshot(w io.Writer) error {
	var ts []*Template
	stats := Stats{ByType: make(map[sqlparse.StatementType]int64)}
	for i := range p.shards {
		ts = p.shards[i].exportInto(ts, &stats)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Key < ts[j].Key })

	opts := p.opts
	opts.Shards = 0 // snapshots are catalog-layout-independent
	// The fingerprint cache is pure derived state (a hit mutates the catalog
	// exactly as its miss would have), so it is deliberately excluded: a
	// cache-enabled catalog snapshots byte-identically to a disabled one,
	// and restores decide their own cache size.
	opts.FingerprintCacheSize = 0
	dto := snapshotDTO{
		Version: snapshotVersion,
		Opts:    opts,
		Stats: statsDTO{
			TotalQueries: stats.TotalQueries,
			ParseErrors:  p.parseErrors.Load(),
		},
	}
	types := make([]sqlparse.StatementType, 0, len(stats.ByType))
	for k := range stats.ByType {
		types = append(types, k)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, k := range types {
		dto.Stats.ByType = append(dto.Stats.ByType, typeCountDTO{Type: k, Count: stats.ByType[k]})
	}

	for i, t := range ts {
		hb, err := t.History.MarshalBinary()
		if err != nil {
			return fmt.Errorf("preprocess: snapshot template %d: %w", t.ID, err)
		}
		dto.Templates = append(dto.Templates, templateDTO{
			ID:             int64(i + 1), // canonical ID: position in key order
			SQL:            t.SQL,
			Key:            t.Key,
			History:        hb,
			ReservoirItems: t.Params.Sample(),
			ReservoirSeen:  t.Params.Seen(),
			FirstSeen:      t.FirstSeen,
			LastSeen:       t.LastSeen,
			Count:          t.Count,
			Tuples:         t.Tuples,
		})
	}
	return gob.NewEncoder(w).Encode(dto)
}

// exportInto appends clones of the stripe's templates and folds its counters
// into stats, all under one lock acquisition so each stripe's templates and
// counters agree with each other.
func (s *catalogShard) exportInto(out []*Template, stats *Stats) []*Template {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore maporder Snapshot sorts the merged slice by semantic key before encoding
	for _, t := range s.templates {
		out = append(out, t.Clone())
	}
	stats.TotalQueries += s.totalQueries
	for k, v := range s.byType {
		stats.ByType[k] += v
	}
	return out
}

// RestoreSnapshotCache reconstructs a Preprocessor from a snapshot stream
// with the given stripe count (0 selects the default) and fingerprint-cache
// entry bound (0 = disabled). Snapshots carry neither — the stripe layout is
// not part of the canonical form and the cache is derived state — so the
// restoring configuration decides both. Restored templates keep their
// canonical snapshot IDs; every stripe's ID sequence starts above the
// restored maximum, so templates created after the restore can never collide
// with a restored ID.
func RestoreSnapshotCache(r io.Reader, shards, fpCacheSize int) (*Preprocessor, error) {
	var dto snapshotDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("preprocess: restore: %w", err)
	}
	if dto.Version != snapshotVersion {
		return nil, fmt.Errorf("preprocess: unsupported snapshot version %d", dto.Version)
	}
	opts := dto.Opts
	opts.Shards = shards
	opts.FingerprintCacheSize = fpCacheSize
	p := New(opts)
	var maxID int64
	for _, td := range dto.Templates {
		h := &timeseries.History{}
		if err := h.UnmarshalBinary(td.History); err != nil {
			return nil, fmt.Errorf("preprocess: restore template %d: %w", td.ID, err)
		}
		// Re-seed from the key hash plus progress, matching fold's
		// shard-layout-independent scheme so the sampling stream after a
		// restore does not depend on snapshot ID remapping.
		res := RestoreReservoir(p.opts.ReservoirSize, p.opts.Seed+int64(keyHash(td.Key))+td.ReservoirSeen, td.ReservoirItems, td.ReservoirSeen)
		t := &Template{
			ID:        td.ID,
			SQL:       td.SQL,
			Key:       td.Key,
			History:   h,
			Params:    res,
			FirstSeen: td.FirstSeen,
			LastSeen:  td.LastSeen,
			Count:     td.Count,
			Tuples:    td.Tuples,
		}
		// Re-derive the logical features from the canonical template SQL.
		if parsed, err := Templatize(td.SQL); err == nil {
			t.Features = parsed.Features
		}
		sh := p.shardFor(t.Key)
		sh.mu.Lock()
		sh.templates[t.Key] = t
		sh.byID[t.ID] = t
		sh.mu.Unlock()
		if td.ID > maxID {
			maxID = td.ID
		}
	}
	// Counters are merged on read, so the restored totals live in stripe 0.
	s0 := &p.shards[0]
	s0.mu.Lock()
	s0.totalQueries = dto.Stats.TotalQueries
	for _, tc := range dto.Stats.ByType {
		s0.byType[tc.Type] = tc.Count
	}
	s0.mu.Unlock()
	p.parseErrors.Store(dto.Stats.ParseErrors)
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.nextSeq = maxID
		sh.mu.Unlock()
	}
	return p, nil
}

// RestoreReservoir rebuilds a reservoir from persisted samples.
func RestoreReservoir(capacity int, seed int64, items [][]string, seen int64) *Reservoir {
	r := NewReservoir(capacity, seed)
	r.items = make([][]string, 0, len(items))
	for _, it := range items {
		r.items = append(r.items, append([]string(nil), it...))
	}
	r.seen = seen
	return r
}
