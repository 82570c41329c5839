// Package qb5000 is a Go implementation of QueryBot 5000, the query-based
// workload forecasting framework for self-driving database management
// systems from Ma et al., SIGMOD 2018.
//
// A Forecaster ingests the raw SQL stream a DBMS executes. It converts each
// query into a generic template (constants stripped, formatting normalized,
// semantically equivalent shapes folded together), tracks each template's
// arrival-rate history at one-minute granularity, clusters templates whose
// arrival patterns move together, and fits forecasting models to the
// highest-volume clusters. A self-driving DBMS's planning module then asks
// for the expected arrival rates one hour, one day, or one week ahead and
// schedules optimizations — index builds, resource provisioning — against
// the future workload instead of the past one.
//
// Minimal usage:
//
//	f := qb5000.New(qb5000.Config{Horizons: []time.Duration{time.Hour}})
//	f.Observe("SELECT * FROM foo WHERE id = 42", time.Now())
//	f.Maintain(ctx, time.Now())             // recluster + train (periodic)
//	preds, err := f.Forecast(time.Hour)     // expected rates per cluster
package qb5000

import (
	"context"
	"io"
	"os"
	"sort"
	"time"

	"qb5000/internal/cluster"
	"qb5000/internal/core"
	"qb5000/internal/fsx"
	"qb5000/internal/preprocess"
	"qb5000/internal/tracefile"
)

// Config tunes a Forecaster. The zero value reproduces the paper's operating
// point: ρ=0.8, γ=150 %, one-hour prediction interval, three-week training
// window, top clusters covering 95 % of volume (max 5), daily re-clustering,
// and the HYBRID (LR+RNN ensemble corrected by kernel regression) model.
type Config struct {
	// Rho is the clustering similarity threshold in [0,1].
	Rho float64
	// Gamma is the spike-override threshold for the HYBRID model
	// (1.5 = paper's 150 %).
	Gamma float64
	// Interval is the prediction interval.
	Interval time.Duration
	// Horizons lists the prediction horizons to maintain models for.
	Horizons []time.Duration
	// TrainWindow bounds how much history the models train on.
	TrainWindow time.Duration
	// CoverageTarget picks how many clusters to model.
	CoverageTarget float64
	// MaxClusters caps the modeled clusters.
	MaxClusters int
	// ClusterEvery is the periodic re-cluster cadence.
	ClusterEvery time.Duration
	// Model selects the forecasting family: "LR", "KR", "ARMA", "FNN",
	// "RNN", "PSRNN", "ENSEMBLE", or "HYBRID".
	Model string
	// UseLogicalFeatures switches clustering to the logical-feature
	// baseline the paper evaluates in §7.7 (worse; for comparison only).
	UseLogicalFeatures bool
	// Seed makes every stochastic component reproducible.
	Seed int64
	// Epochs and LearnRate tune the neural models.
	Epochs    int
	LearnRate float64
	// Parallelism bounds the worker pool used for model retraining and
	// clustering: 0 selects GOMAXPROCS, 1 forces sequential execution.
	// Results are bit-identical at every setting (per-model seeds derive
	// from Seed, not from scheduling order).
	Parallelism int
	// Shards is the template catalog's lock-stripe count, rounded up to a
	// power of two (0 selects GOMAXPROCS rounded up). More stripes let
	// more connection handlers observe queries concurrently. Template IDs
	// are stable for a given (shard count, per-shard input order); Save
	// writes a canonical layout-independent snapshot, so snapshots match
	// byte-for-byte across shard counts. Pin to 1 when template IDs must
	// reproduce across machines with different core counts.
	Shards int
	// FingerprintCacheSize bounds the raw-SQL→template fingerprint cache, in
	// entries across the whole cache; 0 (the default) disables it. When
	// enabled, Observe of a raw query string seen before skips parsing and
	// templatization entirely and folds straight into the catalog — the hot
	// path for production workloads, where the same literal query text
	// repeats millions of times. Hits replay exactly the catalog mutations
	// their misses would have performed, so forecasts, template IDs, and Save
	// snapshots are bit-identical with the cache on or off.
	FingerprintCacheSize int
}

// Forecaster is the public QB5000 instance. It is safe for concurrent use
// and designed so ingestion stays off the DBMS's critical path (§3):
// Observe/ObserveBatch/ObserveMany go straight to the template catalog's
// lock stripes (queries for different templates don't contend), Tick and
// Maintain build clusters and models off to the side and publish them as an
// immutable epoch behind one atomic pointer, and Forecast/Stats/Templates
// read the current epoch and the striped catalog without ever waiting on a
// retrain.
type Forecaster struct {
	ctl *core.Controller
}

// New creates a Forecaster.
func New(cfg Config) *Forecaster {
	return &Forecaster{ctl: core.New(cfg.coreConfig())}
}

// coreConfig converts the public configuration to the controller's.
func (cfg Config) coreConfig() core.Config {
	mode := cluster.ArrivalRate
	if cfg.UseLogicalFeatures {
		mode = cluster.Logical
	}
	return core.Config{
		Rho:            cfg.Rho,
		Gamma:          cfg.Gamma,
		Interval:       cfg.Interval,
		Horizons:       cfg.Horizons,
		TrainWindow:    cfg.TrainWindow,
		CoverageTarget: cfg.CoverageTarget,
		MaxClusters:    cfg.MaxClusters,
		ClusterEvery:   cfg.ClusterEvery,
		Model:          cfg.Model,
		FeatureMode:    mode,
		Seed:           cfg.Seed,
		Epochs:         cfg.Epochs,
		LearnRate:      cfg.LearnRate,
		Parallelism:    cfg.Parallelism,
		Shards:         cfg.Shards,

		FingerprintCacheSize: cfg.FingerprintCacheSize,
	}
}

// Observe forwards one executed query to the framework. Forwarding is
// lightweight and off the DBMS's critical path (§3); errors indicate SQL the
// template parser does not understand.
func (f *Forecaster) Observe(sql string, at time.Time) error {
	return f.ObserveBatch(sql, at, 1)
}

// ObserveBatch forwards count identical arrivals at once — useful when
// replaying aggregated traces. Parsing runs lock-free; only the catalog
// stripe the query's template hashes to is locked, so observations for
// different templates proceed in parallel and never wait on maintenance.
func (f *Forecaster) ObserveBatch(sql string, at time.Time, count int64) error {
	return f.ctl.Ingest(sql, at, count)
}

// Observation is one query arrival: raw SQL, arrival time At, and Count
// identical arrivals (0 is treated as 1, negative counts are rejected).
type Observation = preprocess.Observation

// ObserveManyResult reports the outcome of one ObserveMany or ObserveTrace
// call. Both tallies are query-weighted: an observation with Count 5 adds 5
// to whichever side it lands on.
type ObserveManyResult struct {
	// Ingested counts queries folded into the catalog.
	Ingested int64
	// Rejected counts queries dropped: unparseable SQL (also counted in
	// Stats.ParseErrors) or negative counts (which weigh 1).
	Rejected int64
}

// ObserveMany forwards a batch of observations in input order, producing
// exactly the catalog the equivalent sequence of ObserveBatch calls would.
func (f *Forecaster) ObserveMany(obs []Observation) ObserveManyResult {
	ingested, rejected := f.ctl.IngestMany(obs)
	return ObserveManyResult{Ingested: ingested, Rejected: rejected}
}

// ObserveTrace reads a trace stream (timestamp<TAB>[count<TAB>]SQL per line,
// see internal/tracefile) and forwards each entry as it is parsed, so memory
// stays bounded on unbounded streams. It stops at the first malformed line
// or read error; the entries before it have already been folded and are
// counted in the result.
func (f *Forecaster) ObserveTrace(r io.Reader) (ObserveManyResult, error) {
	var res ObserveManyResult
	err := tracefile.Read(r, func(e tracefile.Entry) error {
		if f.ObserveBatch(e.SQL, e.At, e.Count) != nil {
			res.Rejected += e.Count
		} else {
			res.Ingested += e.Count
		}
		return nil
	})
	return res, err
}

// Tick performs any due periodic maintenance (history compaction,
// re-clustering, retraining) and reports whether a re-cluster ran. Call it
// regularly — e.g. once per simulated or real hour. A cancelled ctx aborts
// clustering and retraining between pool items, keeping the previous models.
// Ticks serialize against each other and against Maintain, but never block
// Observe or Forecast.
func (f *Forecaster) Tick(ctx context.Context, now time.Time) (bool, error) {
	return f.ctl.Tick(ctx, now)
}

// Maintain forces an immediate re-cluster and retrain, with cancellation
// semantics matching Tick.
func (f *Forecaster) Maintain(ctx context.Context, now time.Time) error {
	return f.ctl.Refresh(ctx, now)
}

// ClusterForecast is the predicted arrival rate for one template cluster.
type ClusterForecast struct {
	// ClusterID identifies the cluster.
	ClusterID int64
	// Templates holds the canonical SQL of the cluster's member templates.
	Templates []string
	// PerTemplateRate is the predicted average arrival rate per template,
	// in queries per prediction interval.
	PerTemplateRate float64
	// TotalRate is the cluster's total predicted volume per interval.
	TotalRate float64
}

// Forecast returns the predicted arrival rates for the tracked clusters at
// the given horizon. The horizon must be one of Config.Horizons and enough
// history must have been observed for training. Forecast never blocks on
// maintenance and copies no history: the clusters, their members and the
// models are the current epoch's, and the model input is summed from the
// live catalog — each member template's last day read at one instant under
// its stripe's lock, members one after another. A forecast taken while
// ingest runs therefore has no single catalog-wide instant (nor did the
// stripe-by-stripe clone it replaces); quiesce ingest for one.
func (f *Forecaster) Forecast(horizon time.Duration) ([]ClusterForecast, error) {
	preds, err := f.ctl.Forecast(horizon)
	if err != nil {
		return nil, err
	}
	out := make([]ClusterForecast, 0, len(preds))
	for _, p := range preds {
		cf := ClusterForecast{
			ClusterID:       p.Cluster.ID,
			Templates:       make([]string, 0, len(p.MemberIDs)),
			PerTemplateRate: p.PerTemplateRate,
			TotalRate:       p.TotalRate,
		}
		for _, id := range p.MemberIDs {
			cf.Templates = append(cf.Templates, p.Cluster.Members[id].SQL)
		}
		out = append(out, cf)
	}
	return out, nil
}

// Stats summarizes what the framework is tracking.
type Stats struct {
	// TotalQueries is the number of queries observed.
	TotalQueries int64
	// Templates is the live template count after Pre-Processor reduction.
	Templates int
	// Clusters is the live cluster count.
	Clusters int
	// TrackedClusters is how many clusters currently have models.
	TrackedClusters int
	// ParseErrors counts queries the template parser rejected.
	ParseErrors int64
	// CacheHits counts observes served by the fingerprint cache (raw SQL
	// seen before; no parse). Zero when the cache is disabled.
	CacheHits int64
	// CacheMisses counts observes that took the full templatize path while
	// the cache was enabled.
	CacheMisses int64
	// CacheEvictions counts fingerprint-cache entries displaced by the
	// clock-hand eviction when a cache shard was full.
	CacheEvictions int64
}

// Stats reports the current reduction statistics (cf. paper Table 2). It
// merges the catalog stripes' counters and reads the current epoch without
// blocking ingest or maintenance.
func (f *Forecaster) Stats() Stats {
	ps := f.ctl.Preprocessor().Stats()
	return Stats{
		TotalQueries:    ps.TotalQueries,
		Templates:       ps.NumTemplates,
		Clusters:        f.ctl.Clusterer().Len(),
		TrackedClusters: len(f.ctl.Tracked()),
		ParseErrors:     ps.ParseErrors,
		CacheHits:       ps.CacheHits,
		CacheMisses:     ps.CacheMisses,
		CacheEvictions:  ps.CacheEvictions,
	}
}

// TemplateInfo describes one tracked template.
type TemplateInfo struct {
	ID        int64
	SQL       string
	Count     int64
	FirstSeen time.Time
	LastSeen  time.Time
	// SampleParams are reservoir-sampled parameter vectors from the
	// template's original queries, for re-instantiating representative
	// queries during optimization planning.
	SampleParams [][]string
}

// Templates lists the live templates ordered by ID. The infos are built
// stripe by stripe under the catalog's locks from each template's metadata
// and a copy of its parameter sample — no arrival history is read or copied
// — so mutating them (or their SampleParams) cannot affect the forecaster.
func (f *Forecaster) Templates() []TemplateInfo {
	pre := f.ctl.Preprocessor()
	out := make(templateInfos, 0, pre.Len())
	pre.Each(out.add)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// templateInfos collects one TemplateInfo per template Preprocessor.Each
// visits.
type templateInfos []TemplateInfo

func (ti *templateInfos) add(t *preprocess.Template) {
	*ti = append(*ti, TemplateInfo{
		ID:        t.ID,
		SQL:       t.SQL,
		Count:     t.Count,
		FirstSeen: t.FirstSeen,
		LastSeen:  t.LastSeen,
		// The reservoir replaces whole vectors and never edits one, so a
		// copy of the outer slice is the copy Template.Clone made.
		SampleParams: append([][]string(nil), t.Params.Sample()...),
	})
}

// Templatize converts a raw SQL string into its canonical template and
// extracted parameters without registering it with any Forecaster.
func Templatize(sql string) (template string, params []string, err error) {
	res, err := preprocess.Templatize(sql)
	if err != nil {
		return "", nil, err
	}
	ps := make([]string, len(res.Params))
	for i, p := range res.Params {
		ps[i] = p.Value
	}
	return res.SQL, ps, nil
}

// Save persists the forecaster's durable state — the template catalog with
// its arrival-rate histories — to w in a canonical, shard-layout-independent
// form. Clusters and trained models are derived state; they are rebuilt by
// the first Maintain/Tick after a Load. Saving concurrently with ingest
// captures each catalog stripe atomically; quiesce ingest for a snapshot of
// one exact instant.
func (f *Forecaster) Save(w io.Writer) error {
	return f.ctl.Snapshot(w)
}

// SaveFile persists the forecaster's durable state to path atomically and
// durably: the snapshot is written to a temp file in path's directory,
// fsynced, and renamed over path (fsx.WriteAtomic). A crash or error at any
// point — including mid-write power loss — leaves the previous snapshot at
// path intact.
//
// qb5000:durable path
func (f *Forecaster) SaveFile(path string) error {
	return fsx.WriteAtomic(path, f.Save)
}

// LoadFile reconstructs a Forecaster from a snapshot file written by
// SaveFile. Damaged files — truncated, bit-flipped, or carrying trailing
// garbage — are rejected with a descriptive error.
//
// qb5000:durable path
func LoadFile(cfg Config, path string) (*Forecaster, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	f, err := Load(cfg, file)
	if cerr := file.Close(); err == nil && cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Load reconstructs a Forecaster from a snapshot written by Save, under the
// given configuration. The stream is one length-prefixed, checksummed
// frame, verified before anything in it is decoded; truncation, corruption
// and snapshots in an earlier format surface as clean errors, never as a
// decoder panic or silently partial state.
func Load(cfg Config, r io.Reader) (*Forecaster, error) {
	ctl, err := core.RestoreController(cfg.coreConfig(), r)
	if err != nil {
		return nil, err
	}
	return &Forecaster{ctl: ctl}, nil
}

// Controller exposes the underlying controller for advanced integrations
// (experiment harnesses, the index-advisor example). Most callers should
// not need it. The controller is itself safe for concurrent use — it is the
// same object every Forecaster method delegates to.
func (f *Forecaster) Controller() *core.Controller {
	return f.ctl
}
