package preprocess

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"time"

	"qb5000/internal/sqlparse"
	"qb5000/internal/timeseries"
)

// Catalog snapshots persist the Pre-Processor's state — the paper's QB5000
// stores templates and arrival histories in an internal database so the
// framework survives restarts (§3). Derived state (clusters, models, the
// fingerprint cache) is rebuilt after a restore. A snapshot is one frame,
// and this file is the only code that knows it (DESIGN.md §8):
//
//	[8]  magic "QB5KSNP3", the format's one version marker
//	[8]  big-endian uint64 body length
//	[…]  body: a gob snapshotHeader, then one timeseries history per
//	     header template, in header order (History.AppendBinary)
//	[4]  big-endian CRC32-IEEE of the body
//
// Snapshots are canonical and layout-independent: templates are written in
// sorted semantic-key order, a template's ID is its 1-based position in that
// order, the stripe count and cache size are not persisted, and the per-type
// counters are a sorted slice (gob encodes maps in random iteration order).
// Two catalogs that folded the same queries in the same order therefore
// produce byte-identical snapshots regardless of how many shards either
// used. Truncation is caught by the length prefix, bit flips by the
// checksum, appended garbage by an EOF probe after the trailer — all before
// a byte of the body is decoded.

// snapshotMagic identifies the frame. Files in any earlier format fail the
// magic check and must be regenerated; no reader for them is kept.
const snapshotMagic = "QB5KSNP3"

// maxSnapshotBody bounds the declared body length so a corrupted length
// field cannot drive an absurd read. 1 TiB is orders of magnitude beyond
// any real catalog.
const maxSnapshotBody = 1 << 40

// snapshotHeader is everything in a snapshot but the bins: what gob is good
// at (strings, times, nested slices) and small next to them.
type snapshotHeader struct {
	Opts         Options
	TotalQueries int64
	ParseErrors  int64
	ByType       []typeCount
	Templates    []templateRecord
}

type typeCount struct {
	Type  sqlparse.StatementType
	Count int64
}

type templateRecord struct {
	SQL                 string
	Key                 string
	ReservoirItems      [][]string
	ReservoirSeen       int64
	FirstSeen, LastSeen time.Time
	Count, Tuples       int64

	// bins is the template's encoded history on its way from the stripe
	// lock to the writer. Unexported, so gob never sees it: the bins follow
	// the header in the frame.
	bins []byte
}

// Snapshot serializes the catalog in canonical form. The reservoir's RNG
// position is not preserved exactly; after a restore, sampling continues
// with a seed derived from the observed count, which keeps samples uniform
// but not bit-identical to an uninterrupted run. Each stripe is captured
// atomically — its bins are encoded straight from the live histories under
// its lock, the one copy a save holds — and the frame is then streamed to w
// outside any lock; for a snapshot that reflects one exact instant, quiesce
// ingest first.
func (p *Preprocessor) Snapshot(w io.Writer) error {
	hdr := snapshotHeader{Opts: p.opts, ParseErrors: p.parseErrors.Load()}
	// Neither the stripe layout nor the fingerprint cache (pure derived
	// state: a hit mutates the catalog exactly as its miss would have) is
	// part of the canonical form; a restore decides both.
	hdr.Opts.Shards = 0
	hdr.Opts.FingerprintCacheSize = 0
	byType := make(map[sqlparse.StatementType]int64)
	for i := range p.shards {
		p.shards[i].exportInto(&hdr, byType)
	}
	sort.Slice(hdr.Templates, func(i, j int) bool { return hdr.Templates[i].Key < hdr.Templates[j].Key })
	for k, n := range byType {
		hdr.ByType = append(hdr.ByType, typeCount{Type: k, Count: n})
	}
	sort.Slice(hdr.ByType, func(i, j int) bool { return hdr.ByType[i].Type < hdr.ByType[j].Type })

	var head bytes.Buffer
	if err := gob.NewEncoder(&head).Encode(hdr); err != nil {
		return fmt.Errorf("preprocess: snapshot header: %w", err)
	}
	size := uint64(head.Len())
	for i := range hdr.Templates {
		size += uint64(len(hdr.Templates[i].bins))
	}

	out := bufio.NewWriterSize(w, 1<<16) // many small histories become few writes; large ones pass through
	sum := crc32.NewIEEE()
	body := io.MultiWriter(out, sum)
	var err error
	write := func(dst io.Writer, b []byte) {
		if err == nil {
			_, err = dst.Write(b)
		}
	}
	write(out, binary.BigEndian.AppendUint64([]byte(snapshotMagic), size))
	write(body, head.Bytes())
	for i := range hdr.Templates {
		write(body, hdr.Templates[i].bins)
	}
	write(out, sum.Sum(nil))
	if err == nil {
		err = out.Flush()
	}
	if err != nil {
		return fmt.Errorf("preprocess: write snapshot: %w", err)
	}
	return nil
}

// exportInto appends a record for each of the stripe's templates, bins
// encoded, and folds its counters into hdr and byType, all under one lock
// acquisition so each stripe's templates and counters agree with each other.
func (s *catalogShard) exportInto(hdr *snapshotHeader, byType map[sqlparse.StatementType]int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore maporder Snapshot sorts the merged records by semantic key before encoding
	for _, t := range s.templates {
		hdr.Templates = append(hdr.Templates, templateRecord{
			SQL: t.SQL,
			Key: t.Key,
			// The vectors are never mutated in place, the slice of them is.
			ReservoirItems: slices.Clone(t.Params.Sample()),
			ReservoirSeen:  t.Params.Seen(),
			FirstSeen:      t.FirstSeen,
			LastSeen:       t.LastSeen,
			Count:          t.Count,
			Tuples:         t.Tuples,
			bins:           t.History.AppendBinary(nil),
		})
	}
	hdr.TotalQueries += s.totalQueries
	for k, v := range s.byType {
		byType[k] += v
	}
}

// readFrame validates the frame and returns the body. Every failure mode —
// short file, wrong magic, bit flip, trailing garbage — is a distinct
// descriptive error, and none of them reaches a decoder.
func readFrame(r io.Reader) ([]byte, error) {
	var frame [16]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		return nil, fmt.Errorf("preprocess: snapshot truncated in the frame header (want 16 bytes): %w", err)
	}
	if string(frame[:8]) != snapshotMagic {
		return nil, fmt.Errorf("preprocess: not a QB5000 snapshot: bad magic %q (want %q; a snapshot in any earlier format must be regenerated)", frame[:8], snapshotMagic)
	}
	n := binary.BigEndian.Uint64(frame[8:])
	if n > maxSnapshotBody {
		return nil, fmt.Errorf("preprocess: snapshot corrupt: implausible body length %d", n)
	}
	// The buffer grows eightfold as bytes actually arrive: a bit-flipped
	// length cannot force an allocation far beyond the bytes present, and an
	// honest one costs under 1.15 body lengths in all.
	var body []byte
	for uint64(len(body)) < n {
		grown := make([]byte, min(n, max(8*uint64(len(body)), 1<<16)))
		m, err := io.ReadFull(r, grown[copy(grown, body):])
		body = grown[:len(body)+m]
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("preprocess: snapshot truncated: header declares %d body bytes, only %d present", n, len(body))
		} else if err != nil {
			return nil, fmt.Errorf("preprocess: read snapshot body: %w", err)
		}
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, fmt.Errorf("preprocess: snapshot truncated in the CRC trailer: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(trailer[:]); got != want {
		return nil, fmt.Errorf("preprocess: snapshot corrupt: body CRC32 %08x does not match trailer %08x", got, want)
	}
	if _, err := io.ReadFull(r, trailer[:1]); err != io.EOF {
		return nil, fmt.Errorf("preprocess: snapshot has trailing data after the CRC trailer")
	}
	return body, nil
}

// RestoreSnapshotCache reconstructs a Preprocessor from a snapshot stream
// with the given stripe count (0 selects the default) and fingerprint-cache
// entry bound (0 = disabled). Snapshots carry neither — the stripe layout is
// not part of the canonical form and the cache is derived state — so the
// restoring configuration decides both. The frame's length and checksum are
// verified before anything is decoded; what a checksum cannot vouch for —
// record order, reservoir counts, SQL this build can still parse, bins that
// are arrival counts — is validated as it is decoded, and any failure
// returns an error naming the template, never a partly restored catalog.
// Restored templates keep their canonical snapshot IDs; every stripe's ID
// sequence starts above the restored maximum, so templates created after the
// restore can never collide with a restored ID.
func RestoreSnapshotCache(r io.Reader, shards, fpCacheSize int) (*Preprocessor, error) {
	body, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	// A bytes.Reader is an io.ByteReader, so gob reads exactly its own
	// messages and leaves the reader at the first history.
	rest := bytes.NewReader(body)
	var hdr snapshotHeader
	if err := gob.NewDecoder(rest).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("preprocess: restore: snapshot header: %w", err)
	}
	bins := body[len(body)-rest.Len():]
	hdr.Opts.Shards = shards
	hdr.Opts.FingerprintCacheSize = fpCacheSize
	p := New(hdr.Opts)
	for i, rec := range hdr.Templates {
		id := int64(i + 1) // canonical ID: position in key order
		// Strictly ascending keys are the canonical order, and rule out two
		// records sharing a key or an ID.
		if i > 0 && rec.Key <= hdr.Templates[i-1].Key {
			return nil, fmt.Errorf("preprocess: restore template %d: key %q does not sort after its predecessor's %q", id, rec.Key, hdr.Templates[i-1].Key)
		}
		if rec.ReservoirSeen < int64(len(rec.ReservoirItems)) {
			return nil, fmt.Errorf("preprocess: restore template %d: reservoir holds %d samples of %d seen", id, len(rec.ReservoirItems), rec.ReservoirSeen)
		}
		// Re-derive the logical features from the canonical template SQL.
		parsed, err := Templatize(rec.SQL)
		if err != nil {
			return nil, fmt.Errorf("preprocess: restore template %d: canonical SQL %q no longer parses: %w", id, rec.SQL, err)
		}
		var h *timeseries.History
		if h, bins, err = timeseries.DecodeHistory(bins); err != nil {
			return nil, fmt.Errorf("preprocess: restore template %d: %w", id, err)
		}
		// Re-seed from the key hash plus progress, matching fold's
		// shard-layout-independent scheme so the sampling stream after a
		// restore does not depend on snapshot ID remapping.
		res := NewReservoir(p.opts.ReservoirSize, p.opts.Seed+int64(keyHash(rec.Key))+rec.ReservoirSeen)
		res.items, res.seen = rec.ReservoirItems, rec.ReservoirSeen
		t := &Template{
			ID:        id,
			SQL:       rec.SQL,
			Key:       rec.Key,
			Features:  parsed.Features,
			History:   h,
			Params:    res,
			FirstSeen: rec.FirstSeen,
			LastSeen:  rec.LastSeen,
			Count:     rec.Count,
			Tuples:    rec.Tuples,
		}
		sh := p.shardFor(t.Key)
		sh.mu.Lock()
		sh.templates[t.Key] = t
		sh.byID[t.ID] = t
		sh.mu.Unlock()
	}
	if len(bins) != 0 {
		return nil, fmt.Errorf("preprocess: restore: %d bytes follow the last template's history", len(bins))
	}
	p.parseErrors.Store(hdr.ParseErrors)
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.nextSeq = int64(len(hdr.Templates))
		if i == 0 { // counters are merged on read, so the restored totals live in stripe 0
			sh.totalQueries = hdr.TotalQueries
			for _, tc := range hdr.ByType {
				sh.byType[tc.Type] = tc.Count
			}
		}
		sh.mu.Unlock()
	}
	return p, nil
}
