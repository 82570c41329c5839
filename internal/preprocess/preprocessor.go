package preprocess

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qb5000/internal/sqlparse"
)

// Stats aggregates the workload counters reported in Table 1 / Table 2.
type Stats struct {
	TotalQueries int64
	ByType       map[sqlparse.StatementType]int64
	NumTemplates int
	ParseErrors  int64
	// CacheHits and CacheMisses count observe-path fingerprint-cache
	// outcomes; CacheEvictions counts entries displaced by the clock hand.
	// All three stay zero when Options.FingerprintCacheSize is 0.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
}

// Options configure a Preprocessor.
type Options struct {
	// ReservoirSize is the number of parameter vectors sampled per template.
	// Defaults to 64.
	ReservoirSize int
	// Seed drives the reservoir sampling RNG.
	Seed int64
	// EvictAfter removes a template whose queries have not been seen for
	// this long (§5.2 step 2). Zero disables eviction.
	EvictAfter time.Duration
	// Shards is the number of catalog stripes, rounded up to a power of
	// two; 0 selects GOMAXPROCS rounded up. Each stripe has its own mutex,
	// so ingest from independent connections contends only when two
	// templates hash to the same stripe. Template IDs encode the stripe in
	// their low bits, so results are deterministic per (shard count, input
	// order); Snapshot writes a canonical layout-independent form (see
	// snapshot.go). Shards=1 reproduces the historical sequential IDs.
	Shards int
	// FingerprintCacheSize bounds the raw-SQL→template fingerprint cache in
	// entries; 0 disables it. The cache lets repeated query text skip
	// lex/parse/normalize entirely (fpcache.go). It is pure derived state:
	// enabling it changes no catalog state, no template IDs, and no snapshot
	// bytes — only speed and the Cache* counters in Stats.
	FingerprintCacheSize int
}

// Preprocessor ingests raw queries and maintains the template catalog. It is
// safe for concurrent use and designed to stay off the DBMS's critical path
// (§3): templatization (parsing) is lock-free, and the catalog is split into
// hash-striped shards so connection handlers forwarding different templates
// fold into different stripes without contending. Readers merge the stripes
// deterministically.
type Preprocessor struct {
	opts Options
	// shards, shardMask, and shardBits are immutable after New.
	shards    []catalogShard
	shardMask uint64
	shardBits uint
	// qb5000:guardedby atomic
	parseErrors atomic.Int64
	// fp is the raw-SQL fingerprint cache; nil when disabled. The pointer is
	// immutable after New; the cache synchronizes internally.
	fp *fpCache
}

// catalogShard is one stripe of the template catalog. Templates are assigned
// to stripes by hashing their semantic key, so a given template lives in
// exactly one stripe for its whole lifetime (restored snapshots included).
type catalogShard struct {
	mu sync.Mutex
	// idx is the stripe's position, immutable after New; live template IDs
	// carry it in their low shardBits bits.
	idx int64
	// qb5000:guardedby mu
	templates map[string]*Template // semantic key → template
	// qb5000:guardedby mu
	byID map[int64]*Template
	// nextSeq is the stripe-local ID sequence; template ID =
	// nextSeq<<shardBits | idx.
	// qb5000:guardedby mu
	nextSeq int64
	// qb5000:guardedby mu
	totalQueries int64
	// qb5000:guardedby mu
	byType map[sqlparse.StatementType]int64
	// newSinceMark counts templates created since the last MarkNewTemplates
	// call; the clusterer uses the ratio of new templates to trigger
	// re-clustering (§5.2).
	// qb5000:guardedby mu
	newSinceMark int
}

// shardCount rounds the requested stripe count up to a power of two;
// non-positive requests select GOMAXPROCS rounded up.
func shardCount(requested int) int {
	n := requested
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New creates a Preprocessor.
func New(opts Options) *Preprocessor {
	if opts.ReservoirSize == 0 {
		opts.ReservoirSize = 64
	}
	n := shardCount(opts.Shards)
	p := &Preprocessor{
		opts:      opts,
		shards:    make([]catalogShard, n),
		shardMask: uint64(n - 1),
	}
	for 1<<p.shardBits < n {
		p.shardBits++
	}
	p.fp = newFPCache(opts.FingerprintCacheSize, n)
	for i := range p.shards {
		sh := &p.shards[i]
		sh.idx = int64(i)
		sh.mu.Lock()
		sh.templates = make(map[string]*Template)
		sh.byID = make(map[int64]*Template)
		sh.byType = make(map[sqlparse.StatementType]int64)
		sh.mu.Unlock()
	}
	return p
}

// NumShards reports the catalog's stripe count (a power of two).
func (p *Preprocessor) NumShards() int { return len(p.shards) }

// keyHash is FNV-1a over the semantic key. It picks the stripe and seeds
// the template's parameter reservoir: both must depend only on the key, not
// on the stripe layout, so snapshots stay byte-identical across shard
// counts.
//
// qb5000:noalloc
func keyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// shardIndex hashes a semantic key onto a stripe.
//
// qb5000:noalloc
func (p *Preprocessor) shardIndex(key string) int {
	return int(keyHash(key) & p.shardMask)
}

// qb5000:noalloc
func (p *Preprocessor) shardFor(key string) *catalogShard {
	return &p.shards[p.shardIndex(key)]
}

// Process templatizes one raw query observed at time `at` and folds it into
// the catalog, returning the template it mapped to. The returned pointer is
// the live catalog object owned by its stripe; callers that read it
// concurrently with further ingest must use Template/Templates, which return
// race-free copies.
func (p *Preprocessor) Process(raw string, at time.Time) (*Template, error) {
	return p.processN(raw, at, 1)
}

// ProcessBatch folds `count` identical arrivals of raw at time `at`. Trace
// replays use this to avoid re-parsing hot queries millions of times. The
// returned pointer has the same ownership caveat as Process.
func (p *Preprocessor) ProcessBatch(raw string, at time.Time, count int64) (*Template, error) {
	if count <= 0 {
		return nil, fmt.Errorf("preprocess: non-positive batch count %d", count)
	}
	return p.processN(raw, at, count)
}

func (p *Preprocessor) processN(raw string, at time.Time, count int64) (*Template, error) {
	if p.fp != nil {
		if t := p.foldFingerprint(raw, at, count); t != nil {
			return t, nil
		}
	}
	res, err := Templatize(raw)
	if err != nil {
		p.parseErrors.Add(1)
		return nil, fmt.Errorf("preprocess: %w", err)
	}
	key := res.Features.SemanticKey()
	vals := renderParams(res.Params)
	ix := p.shardIndex(key)
	sh := &p.shards[ix]
	sh.mu.Lock()
	t := sh.fold(p, res, key, vals, at, count)
	sh.mu.Unlock()
	if p.fp != nil {
		p.fp.insert(raw, t.ID, ix, vals, int64(res.BatchSize), res.Stmt.Type())
	}
	return t, nil
}

// foldFingerprint is the observe fast path: resolve raw through the
// fingerprint cache and fold straight into the owning stripe, skipping
// lex/parse/normalize entirely. It allocates nothing in steady state. A nil
// return means the caller must take the full templatize path: either no
// entry exists, or the cached template was evicted underneath the entry —
// the stripe's byID index is re-checked under its lock, so a stale entry can
// never resurrect a dead template ID.
//
// qb5000:noalloc
func (p *Preprocessor) foldFingerprint(raw string, at time.Time, count int64) *Template {
	e := p.fp.lookup(raw)
	if e == nil {
		p.fp.misses.Add(1)
		return nil
	}
	sh := &p.shards[e.stripe]
	sh.mu.Lock()
	t, ok := sh.byID[e.id]
	if !ok {
		sh.mu.Unlock()
		// Maintain evicted the template after the entry was cached; drop
		// the stale mapping and re-templatize fresh. Identical raw bytes
		// always map to the same semantic key, so the re-fold lands on this
		// same stripe and mints a brand-new ID.
		//lint:ignore noalloc stale-entry cleanup runs once per eviction race, not in the steady-state hit path
		p.fp.invalidate(raw, e)
		p.fp.misses.Add(1)
		return nil
	}
	sh.foldExisting(t, e.vals, e.batch, e.stmt, at, count)
	sh.mu.Unlock()
	p.fp.hits.Add(1)
	return t
}

// Observation is one query arrival: the record a trace line parses to and
// every ingest entry point takes (tracefile.Entry and qb5000.Observation are
// aliases of it).
type Observation struct {
	// SQL is the raw query text.
	SQL string
	// At is the arrival time.
	At time.Time
	// Count is the number of identical arrivals; 0 is treated as 1,
	// negative counts are rejected.
	Count int64
}

// ProcessMany folds a batch of observations in input order, exactly as the
// equivalent sequence of ProcessBatch calls would. The returned counts are
// query-weighted: ingested sums the arrival counts folded in, rejected sums
// the counts of dropped observations (parse failures — which also increment
// Stats.ParseErrors — and negative counts, which weigh 1).
func (p *Preprocessor) ProcessMany(obs []Observation) (ingested, rejected int64) {
	for i := range obs {
		o := &obs[i]
		count := o.Count
		if count < 0 {
			rejected++
			continue
		}
		if count == 0 {
			count = 1
		}
		if _, err := p.processN(o.SQL, o.At, count); err != nil {
			rejected += count
			continue
		}
		ingested += count
	}
	return ingested, rejected
}

// fold records count arrivals of a parsed query into the stripe, creating
// the template on first sight. vals are the query's parameter literals
// pre-rendered by renderParams (callers also hand them to the fingerprint
// cache, so they are rendered exactly once per parse).
//
// qb5000:locked mu
func (s *catalogShard) fold(p *Preprocessor, res *TemplatizeResult, key string, vals []string, at time.Time, count int64) *Template {
	t, ok := s.templates[key]
	if !ok {
		s.nextSeq++
		id := s.nextSeq<<p.shardBits | s.idx
		t = &Template{
			ID:       id,
			SQL:      res.SQL,
			Key:      key,
			Features: res.Features,
			History:  newHistory(at),
			// Seed from the key hash, not the ID: IDs carry stripe bits,
			// and reservoir sampling must not vary with the stripe layout.
			Params: NewReservoir(p.opts.ReservoirSize, p.opts.Seed+int64(keyHash(key))),
		}
		s.templates[key] = t
		s.byID[id] = t
		s.newSinceMark++
	}
	s.foldExisting(t, vals, int64(res.BatchSize), res.Stmt.Type(), at, count)
	return t
}

// foldExisting folds count arrivals into an already-live template. It is the
// single shared tail of both observe paths — the cache hit replays the vals,
// batch size, and statement type captured at its entry's one real parse — so
// hit and miss mutate the catalog bit-for-bit identically and enabling the
// cache can never change template IDs, reservoir streams, or snapshots.
//
// qb5000:locked mu
// qb5000:noalloc
func (s *catalogShard) foldExisting(t *Template, vals []string, batch int64, stmt sqlparse.StatementType, at time.Time, count int64) {
	t.recordVals(at, vals)
	if count > 1 {
		t.Count += count - 1
		//lint:ignore noalloc a minute past the fine tier's capacity grows it by max(n/8, a day of bins): 28 allocations in 31 days of minutes (timeseries.TestRecordMinuteLoopAllocs)
		t.History.Record(at, float64(count-1))
	}
	t.Tuples += count * batch
	s.totalQueries += count
	//lint:ignore noalloc byType's key space is the fixed statement-type enum; buckets stop growing after warmup
	s.byType[stmt] += count
}

// Templates returns a snapshot of the catalog sorted by template ID. The
// returned templates are deep copies: safe to read without synchronization
// and immune to concurrent ingest. Each stripe is copied atomically; under
// concurrent ingest, arrivals landing while the snapshot is being taken may
// appear in later-copied stripes but never tear an individual template.
func (p *Preprocessor) Templates() []*Template {
	out := make([]*Template, 0, p.Len())
	for i := range p.shards {
		out = p.shards[i].appendClones(out)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (s *catalogShard) appendClones(out []*Template) []*Template {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore maporder every caller sorts the merged cross-stripe slice by ID
	for _, t := range s.templates {
		out = append(out, t.Clone())
	}
	return out
}

// Template returns a copy of the template with the given ID, if present.
func (p *Preprocessor) Template(id int64) (*Template, bool) {
	var out *Template
	ok := p.view(id, func(t *Template) { out = t.Clone() })
	return out, ok
}

// Window adds the arrivals of template id over [from+i·step,
// from+(i+1)·step) to dst[i], exactly as History.Window would, and reports
// whether the ID is in the catalog; an unknown ID leaves dst untouched. The
// read runs on the live history under its stripe's lock — one instant of that
// one template — and copies nothing: it is how a forecast sums its lag
// window without cloning the histories it reads from.
func (p *Preprocessor) Window(id int64, dst []float64, from time.Time, step time.Duration) bool {
	return p.view(id, func(t *Template) { t.History.Window(dst, from, step) })
}

// view runs fn on the live template with the given ID under its stripe's
// lock and reports whether the ID is in the catalog. fn must not retain t or
// anything reachable from it.
func (p *Preprocessor) view(id int64, fn func(*Template)) bool {
	// Fast path: live IDs encode their stripe in the low bits.
	home := int(uint64(id) & p.shardMask)
	if p.shards[home].view(id, fn) {
		return true
	}
	// Restored snapshots carry canonical IDs whose low bits need not match
	// the key-hash stripe; fall back to scanning the other stripes.
	for i := range p.shards {
		if i != home && p.shards[i].view(id, fn) {
			return true
		}
	}
	return false
}

func (s *catalogShard) view(id int64, fn func(*Template)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byID[id]
	if ok {
		fn(t)
	}
	return ok
}

// Each runs fn on every live template, one stripe after another under that
// stripe's lock and in no particular order within it — the whole-catalog
// form of view, for readers that want a template's metadata or parameter
// sample and not a copy of its history. fn must not retain t or anything
// reachable from it, and must not call back into the Preprocessor.
func (p *Preprocessor) Each(fn func(*Template)) {
	for i := range p.shards {
		p.shards[i].each(fn)
	}
}

func (s *catalogShard) each(fn func(*Template)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.templates {
		fn(t)
	}
}

// CloneByID returns copies of the templates with the given IDs, keyed by ID.
// IDs not in the catalog are simply absent from the result. Nothing on a
// serving path calls it any more (a forecast reads through Window); it stays
// exported for the benchmark's trace.
func (p *Preprocessor) CloneByID(ids []int64) map[int64]*Template {
	want := make(map[int64]struct{}, len(ids))
	for _, id := range ids {
		want[id] = struct{}{}
	}
	out := make(map[int64]*Template, len(ids))
	for i := range p.shards {
		p.shards[i].cloneInto(want, out)
	}
	return out
}

func (s *catalogShard) cloneInto(want map[int64]struct{}, out map[int64]*Template) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id := range want {
		if t, ok := s.byID[id]; ok {
			out[id] = t.Clone()
		}
	}
}

// Len returns the number of live templates.
func (p *Preprocessor) Len() int {
	n := 0
	for i := range p.shards {
		n += p.shards[i].size()
	}
	return n
}

func (s *catalogShard) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.templates)
}

// SeenBounds returns the earliest FirstSeen and the latest LastSeen over the
// live templates (zero times for an empty catalog) without cloning any of
// them: what a restored controller needs to set its clock.
func (p *Preprocessor) SeenBounds() (first, last time.Time) {
	for i := range p.shards {
		first, last = p.shards[i].seenBounds(first, last)
	}
	return first, last
}

func (s *catalogShard) seenBounds(first, last time.Time) (time.Time, time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.templates {
		if first.IsZero() || t.FirstSeen.Before(first) {
			first = t.FirstSeen
		}
		if t.LastSeen.After(last) {
			last = t.LastSeen
		}
	}
	return first, last
}

// Stats returns the accumulated workload counters merged across stripes.
func (p *Preprocessor) Stats() Stats {
	s := Stats{ByType: make(map[sqlparse.StatementType]int64)}
	for i := range p.shards {
		p.shards[i].statsInto(&s)
	}
	s.ParseErrors = p.parseErrors.Load()
	if p.fp != nil {
		s.CacheHits = p.fp.hits.Load()
		s.CacheMisses = p.fp.misses.Load()
		s.CacheEvictions = p.fp.evictions.Load()
	}
	return s
}

func (s *catalogShard) statsInto(out *Stats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out.TotalQueries += s.totalQueries
	out.NumTemplates += len(s.templates)
	for k, v := range s.byType {
		out.ByType[k] += v
	}
}

// NewTemplateRatio returns the fraction of the catalog created since the
// last call to MarkNewTemplates. The clusterer triggers an early re-cluster
// when this exceeds its threshold (§5.2).
func (p *Preprocessor) NewTemplateRatio() float64 {
	var fresh, total int
	for i := range p.shards {
		f, t := p.shards[i].newCounts()
		fresh += f
		total += t
	}
	if total == 0 {
		return 0
	}
	return float64(fresh) / float64(total)
}

func (s *catalogShard) newCounts() (fresh, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.newSinceMark, len(s.templates)
}

// MarkNewTemplates resets the new-template counter.
func (p *Preprocessor) MarkNewTemplates() {
	for i := range p.shards {
		p.shards[i].markNew()
	}
}

func (s *catalogShard) markNew() {
	s.mu.Lock()
	s.newSinceMark = 0
	s.mu.Unlock()
}

// Maintain performs the periodic background work at time `now`: compacting
// stale fine-grained history into coarse bins and evicting templates that
// have been idle past the eviction window. It returns the evicted templates
// (sorted by ID); once evicted, the returned objects are no longer reachable
// from the catalog and belong to the caller.
func (p *Preprocessor) Maintain(now time.Time) []*Template {
	var evicted []*Template
	for i := range p.shards {
		evicted = p.shards[i].maintain(p.opts.EvictAfter, now, evicted)
	}
	// Keep the fingerprint cache coherent: drop every entry pointing at an
	// evicted template. The hit path re-checks byID under the stripe lock as
	// well, so a mapping that slips back in between a stripe's eviction and
	// this sweep (or is inserted concurrently) still can only miss — the
	// sweep bounds stale-entry lifetime, the byID check guarantees a dead ID
	// is never resurrected.
	if p.fp != nil && len(evicted) > 0 {
		dead := make(map[int64]struct{}, len(evicted))
		for _, t := range evicted {
			dead[t.ID] = struct{}{}
		}
		p.fp.invalidateIDs(dead)
	}
	sort.Slice(evicted, func(i, j int) bool { return evicted[i].ID < evicted[j].ID })
	return evicted
}

func (s *catalogShard) maintain(evictAfter time.Duration, now time.Time, evicted []*Template) []*Template {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore maporder Maintain sorts the merged eviction slice by ID; compaction itself is order-independent
	for key, t := range s.templates {
		t.History.Compact(now)
		if evictAfter > 0 && now.Sub(t.LastSeen) > evictAfter {
			delete(s.templates, key)
			delete(s.byID, t.ID)
			evicted = append(evicted, t)
		}
	}
	return evicted
}

// HistoryBytes reports the total storage footprint of all template
// histories, for the Table 4 overhead accounting.
func (p *Preprocessor) HistoryBytes() int {
	var n int
	for i := range p.shards {
		n += p.shards[i].historyBytes()
	}
	return n
}

func (s *catalogShard) historyBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	for _, t := range s.templates {
		n += t.History.Bytes()
	}
	return n
}
