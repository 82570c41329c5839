// Package core wires QB5000's three stages together (paper §3, Figure 2):
// the Pre-Processor ingests raw SQL and maintains templates in real time;
// the Clusterer periodically regroups templates by arrival-rate similarity;
// the Forecaster trains one model per prediction horizon on the largest
// clusters and answers arrival-rate predictions for the planning module.
//
// The controller is safe for concurrent use and keeps ingest off the DBMS's
// critical path: Ingest/IngestMany go straight to the sharded catalog's
// stripe locks, maintenance (Tick/Refresh) serializes behind its own mutex
// and builds clusters and models against cloned catalog snapshots off to
// the side, and the finished result is published as an immutable epoch
// swapped in through one atomic pointer. Forecast and the read accessors
// load the current epoch without blocking, so a retrain never stalls either
// ingestion or predictions.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qb5000/internal/cluster"
	"qb5000/internal/forecast"
	"qb5000/internal/mat"
	"qb5000/internal/parallel"
	"qb5000/internal/preprocess"
	"qb5000/internal/timeseries"
)

// Config tunes the controller. Zero values select the paper's operating
// point.
type Config struct {
	// Rho is the clustering similarity threshold (default 0.8, Appendix A).
	Rho float64
	// Gamma is the HYBRID spike-override threshold (default 1.5, App. C).
	Gamma float64
	// Interval is the prediction interval (default one hour, §7.4).
	Interval time.Duration
	// Horizons are the prediction horizons to maintain models for
	// (default: 1 hour).
	Horizons []time.Duration
	// TrainWindow bounds the history used for model training (default
	// three weeks, §7.2).
	TrainWindow time.Duration
	// CoverageTarget selects how many clusters to model: the smallest set
	// of highest-volume clusters covering this fraction of the workload
	// (default 0.95, §7.2), capped at MaxClusters.
	CoverageTarget float64
	// MaxClusters caps the modeled clusters (default 5, §5.3).
	MaxClusters int
	// ClusterEvery is the periodic re-cluster cadence (default 24 h, §7.1).
	ClusterEvery time.Duration
	// NewTemplateTrigger re-clusters early when the fraction of
	// previously-unseen templates exceeds it (default 0.2, §5.2).
	NewTemplateTrigger float64
	// Model selects the forecasting model family (default "HYBRID").
	Model string
	// FeatureMode selects arrival-rate (default) or logical clustering
	// features (the §7.7 baseline).
	FeatureMode cluster.FeatureMode
	// Seed drives all randomness.
	Seed int64
	// Epochs and LearnRate tune the gradient-trained models.
	Epochs    int
	LearnRate float64
	// FeatureSize is the clustering feature dimensionality (§5.1).
	FeatureSize int
	// Lag is the model input-window length (default one day, §7.2).
	Lag time.Duration
	// EvictAfter drops templates idle for this long (default 14 days).
	EvictAfter time.Duration
	// Parallelism bounds the worker pool shared by model retraining and the
	// clusterer's similarity scans: 0 selects GOMAXPROCS, 1 forces the
	// sequential path. Per-model seeds are derived deterministically from
	// Seed, so results are bit-identical at every setting.
	Parallelism int
	// Shards is the template catalog's lock-stripe count (rounded up to a
	// power of two; 0 selects GOMAXPROCS rounded up). Template IDs depend
	// on the stripe count, so pin Shards to 1 when cross-machine
	// reproducibility of IDs matters (the experiment harnesses do).
	Shards int
	// FingerprintCacheSize bounds the raw-SQL→template fingerprint cache
	// (entries across all cache shards); 0 disables it. The cache is pure
	// derived state — hits mutate the catalog exactly as their misses would —
	// so enabling it changes only ingest latency, never results.
	FingerprintCacheSize int
}

func (c Config) withDefaults() Config {
	if c.Rho == 0 {
		c.Rho = 0.8
	}
	if c.Gamma == 0 {
		c.Gamma = forecast.DefaultGamma
	}
	if c.Interval == 0 {
		c.Interval = time.Hour
	}
	// Arrivals are recorded per minute (§6.2), so that is the finest step a
	// history can be read at: a 90 s interval means two minutes.
	if rem := c.Interval % time.Minute; rem != 0 {
		c.Interval += time.Minute - rem
	}
	if len(c.Horizons) == 0 {
		c.Horizons = []time.Duration{time.Hour}
	}
	if c.TrainWindow == 0 {
		c.TrainWindow = 21 * 24 * time.Hour
	}
	if c.CoverageTarget == 0 {
		c.CoverageTarget = 0.95
	}
	if c.MaxClusters == 0 {
		c.MaxClusters = 5
	}
	if c.ClusterEvery == 0 {
		c.ClusterEvery = 24 * time.Hour
	}
	if c.NewTemplateTrigger == 0 {
		c.NewTemplateTrigger = 0.2
	}
	if c.Model == "" {
		c.Model = "HYBRID"
	}
	if c.EvictAfter == 0 {
		c.EvictAfter = 14 * 24 * time.Hour
	}
	return c
}

// epoch is one immutable published snapshot of the derived state: the
// tracked clusters (cluster snapshots over cloned templates), the trained
// models, and the training-time forecast cap. Epochs are built off to the
// side by the maintenance path and swapped in atomically; readers treat
// every field as read-only. Models are shared across epochs — Predict is
// already safe for concurrent use.
type epoch struct {
	// tracked are the modeled clusters, highest volume first.
	tracked []*cluster.Cluster
	// memberIDs[j] lists tracked[j]'s member template IDs in ascending
	// order, sorted once when the epoch is built: the order a forecast adds
	// the members' arrivals in (DESIGN §7: no map-order float sums).
	memberIDs [][]int64
	// models maps each horizon to its trained model.
	models map[time.Duration]forecast.Model
	// maxTrainLog caps forecasts: no prediction may exceed e× the largest
	// arrival rate seen during training (in log space, +1). Models
	// extrapolating across a workload shift can otherwise emit absurd
	// volumes that would mislead the planning module.
	maxTrainLog float64
	// builtAt is the maintenance timestamp that produced this epoch.
	builtAt time.Time
}

// Controller is the QB5000 framework instance.
type Controller struct {
	cfg Config
	pre *preprocess.Preprocessor
	clu *cluster.Clusterer

	// maintainMu serializes the maintenance path (Tick/Refresh) and guards
	// lastCluster, the last maintenance timestamp. Ingest and the read
	// accessors never take it (TestConcurrentTickAndRefresh, under -race).
	maintainMu  sync.Mutex
	lastCluster time.Time

	// cur is the atomically published current epoch; nil until the first
	// successful maintenance pass.
	cur atomic.Pointer[epoch]

	// trainCount counts completed model (re)trains.
	trainCount atomic.Int64

	// lastSeenNS/firstSeenNS bound the ingested timestamps in Unix
	// nanoseconds (0 = nothing ingested yet). They are CAS max/min loops so
	// concurrent ingest needs no lock.
	lastSeenNS  atomic.Int64
	firstSeenNS atomic.Int64
}

// New creates a controller.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{
		cfg: cfg,
		pre: preprocess.New(preprocess.Options{
			Seed:                 cfg.Seed,
			EvictAfter:           cfg.EvictAfter,
			Shards:               cfg.Shards,
			FingerprintCacheSize: cfg.FingerprintCacheSize,
		}),
		clu: cluster.New(cluster.Options{
			Rho:         cfg.Rho,
			Seed:        cfg.Seed + 1,
			Mode:        cfg.FeatureMode,
			FeatureSize: cfg.FeatureSize,
			Parallelism: cfg.Parallelism,
		}),
	}
}

// storeMaxNS CAS-raises a to ns; 0 means "unset" and always loses.
func storeMaxNS(a *atomic.Int64, ns int64) {
	for {
		cur := a.Load()
		if cur != 0 && ns <= cur {
			return
		}
		if a.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// storeMinNS CAS-lowers a to ns; 0 means "unset" and always loses.
func storeMinNS(a *atomic.Int64, ns int64) {
	for {
		cur := a.Load()
		if cur != 0 && ns >= cur {
			return
		}
		if a.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// noteSeen advances the ingest clock bounds.
func (c *Controller) noteSeen(at time.Time) {
	if at.IsZero() {
		return
	}
	ns := at.UnixNano()
	storeMaxNS(&c.lastSeenNS, ns)
	storeMinNS(&c.firstSeenNS, ns)
}

// Ingest forwards one query observation (with an arrival count, for batched
// replay) into the Pre-Processor. It contends only on the catalog stripe
// the query's template hashes to, never on maintenance. Only an observation
// that folded advances the clock: a rejected line's timestamp is as
// untrusted as its SQL.
func (c *Controller) Ingest(sql string, at time.Time, count int64) error {
	if _, err := c.pre.ProcessBatch(sql, at, count); err != nil {
		return err
	}
	c.noteSeen(at)
	return nil
}

// IngestMany forwards a batch of observations in input order. It returns
// query-weighted counts of how much folded and how much was rejected
// (unparseable SQL or negative counts). Like Ingest, it advances the clock
// per folded observation, so it hands ProcessMany one observation at a time.
func (c *Controller) IngestMany(obs []preprocess.Observation) (ingested, rejected int64) {
	for i := range obs {
		in, rej := c.pre.ProcessMany(obs[i : i+1])
		if in > 0 {
			c.noteSeen(obs[i].At)
		}
		ingested += in
		rejected += rej
	}
	return ingested, rejected
}

// Preprocessor exposes the template catalog (itself safe for concurrent
// use).
func (c *Controller) Preprocessor() *preprocess.Preprocessor { return c.pre }

// Clusterer exposes the clustering state (itself safe for concurrent use).
func (c *Controller) Clusterer() *cluster.Clusterer { return c.clu }

// Tracked returns the clusters modeled by the current epoch, largest first.
// The returned clusters are immutable snapshots; callers may read them
// without synchronization.
func (c *Controller) Tracked() []*cluster.Cluster {
	ep := c.cur.Load()
	if ep == nil {
		return nil
	}
	return ep.tracked
}

// TrainCount reports how many times the forecasting models have been
// (re)trained; every cluster-assignment change forces a retrain (§3).
func (c *Controller) TrainCount() int { return int(c.trainCount.Load()) }

// LastSeen returns the most recent ingested timestamp (the controller's
// notion of "now" during trace replay).
func (c *Controller) LastSeen() time.Time {
	ns := c.lastSeenNS.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// firstSeen returns the earliest ingested timestamp, or the zero time.
func (c *Controller) firstSeen() time.Time {
	ns := c.firstSeenNS.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// Tick performs due maintenance at the (simulated or wall-clock) time now:
// history compaction, periodic re-clustering, the early re-cluster trigger
// on new-template share, and model retraining whenever assignments changed.
// It returns whether a re-cluster ran. Cancelling ctx aborts the clustering
// and training work between pool items; the controller keeps its previous
// epoch and cluster state is refreshed by the next pass. Concurrent Tick
// and Refresh calls serialize behind the maintenance mutex; ingest and
// Forecast never wait on them.
func (c *Controller) Tick(ctx context.Context, now time.Time) (bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.maintainMu.Lock()
	defer c.maintainMu.Unlock()
	due := now.Sub(c.lastCluster) >= c.cfg.ClusterEvery
	trigger := c.pre.NewTemplateRatio() > c.cfg.NewTemplateTrigger && c.pre.Len() > 0
	if !due && !trigger {
		return false, nil
	}
	return true, c.refreshLocked(ctx, now)
}

// Refresh forces a full re-cluster and model retrain. The paper's framework
// periodically updates both the cluster assignments and the forecasting
// models (§3), and additionally retrains whenever assignments change; since
// Refresh IS the periodic update, it always retrains on the latest history.
func (c *Controller) Refresh(ctx context.Context, now time.Time) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c.maintainMu.Lock()
	defer c.maintainMu.Unlock()
	return c.refreshLocked(ctx, now)
}

// refreshLocked is the maintenance pass body. It works entirely against a
// cloned catalog snapshot: ingestion keeps folding into the stripes while
// clustering and training run, and the finished epoch is published
// atomically at the end.
//
// The caller holds c.maintainMu.
func (c *Controller) refreshLocked(ctx context.Context, now time.Time) error {
	c.pre.Maintain(now)
	if _, err := c.clu.Update(ctx, now, c.pre.Templates()); err != nil {
		return err
	}
	c.pre.MarkNewTemplates()
	c.lastCluster = now
	return c.retrain(ctx, now)
}

// retrain rebuilds the tracked-cluster set, fits one model per horizon, and
// publishes the result as a new epoch. The per-horizon fits — the hottest
// path in the framework (Table 4: RNN training dominates) — run on the
// worker pool. Every horizon's model seeds from Config.Seed plus the
// horizon, exactly as the sequential path always did, and each worker
// writes only its own result slot, so the trained models are bit-identical
// at every Parallelism setting. On error nothing is published and the
// previous epoch stays live; horizons whose fit was skipped for lack of
// history carry the previous epoch's model forward.
//
// The caller holds c.maintainMu.
func (c *Controller) retrain(ctx context.Context, now time.Time) error {
	prev := c.cur.Load()
	next := &epoch{
		models:  make(map[time.Duration]forecast.Model, len(c.cfg.Horizons)),
		builtAt: now,
	}
	next.tracked, next.memberIDs = c.selectTracked(now)
	if prev != nil {
		next.maxTrainLog = prev.maxTrainLog
		for h, m := range prev.models {
			next.models[h] = m
		}
	}
	if len(next.tracked) == 0 {
		c.cur.Store(next)
		return nil
	}
	from, to := c.trainSpan(now)
	hist := cluster.LogCenterMatrix(next.tracked, from, to, c.cfg.Interval)
	if hist.Rows < 4 {
		// Not enough history yet; publish the new tracked set with the
		// previous models.
		c.cur.Store(next)
		return nil
	}
	maxLog := 0.0
	for _, v := range hist.Data {
		if v > maxLog {
			maxLog = v
		}
	}
	// The HYBRID spike history is shared read-only by every horizon's fit;
	// build it once instead of per horizon.
	var spikeHist *mat.Matrix
	if c.cfg.Model == "HYBRID" {
		spikeHist = spikeMatrix(now, next.tracked)
	}
	fitted := make([]forecast.Model, len(c.cfg.Horizons))
	err := parallel.ForEach(ctx, c.cfg.Parallelism, len(c.cfg.Horizons), func(_ context.Context, i int) error {
		h := c.cfg.Horizons[i]
		horizon := int(h / c.cfg.Interval)
		if horizon < 1 {
			horizon = 1
		}
		cfg := forecast.Config{
			Lag:       c.lagIntervals(),
			Horizon:   horizon,
			Outputs:   len(next.tracked),
			Seed:      c.cfg.Seed + int64(h/time.Minute),
			Epochs:    c.cfg.Epochs,
			LearnRate: c.cfg.LearnRate,
		}
		if hist.Rows < cfg.Lag+cfg.Horizon+1 {
			return nil
		}
		m, err := forecast.NewByName(c.cfg.Model, cfg)
		if err != nil {
			return err
		}
		if err := m.Fit(hist); err != nil {
			return fmt.Errorf("core: fit %s horizon %v: %w", c.cfg.Model, h, err)
		}
		if hy, ok := m.(*forecast.Hybrid); ok {
			// The spike model trains on the entire hourly history; a young
			// deployment may not have enough of it yet, in which case the
			// hybrid degrades to plain ENSEMBLE. Any other failure is real
			// and must surface.
			if err := hy.FitSpike(spikeHist); err != nil && !errors.Is(err, forecast.ErrInsufficientData) {
				return fmt.Errorf("core: fit %s spike model horizon %v: %w", c.cfg.Model, h, err)
			}
		}
		fitted[i] = m
		return nil
	})
	if err != nil {
		// Abort without publishing: the previous epoch (and its models)
		// stays live, so a cancelled pass never leaves half-trained state.
		return err
	}
	next.maxTrainLog = maxLog
	trained := false
	for i, h := range c.cfg.Horizons {
		if fitted[i] == nil {
			continue
		}
		next.models[h] = fitted[i]
		trained = true
	}
	if trained {
		c.trainCount.Add(1)
	}
	c.cur.Store(next)
	return nil
}

// lagIntervals is the model input window: one day of intervals by default
// (§7.2 uses the last day's arrival rate as input).
func (c *Controller) lagIntervals() int {
	lag := c.cfg.Lag
	if lag == 0 {
		lag = 24 * time.Hour
	}
	n := int(lag / c.cfg.Interval)
	if n < 2 {
		n = 2
	}
	return n
}

// selectTracked picks the highest-volume clusters covering the target
// fraction of the last day's workload, capped at MaxClusters, and snapshots
// them so the epoch is immune to the clusterer's next in-place Update. With
// each cluster it returns the sorted member IDs the epoch serves forecasts by.
//
// The caller holds c.maintainMu.
func (c *Controller) selectTracked(now time.Time) ([]*cluster.Cluster, [][]int64) {
	tracked := c.clu.Top(now, 24*time.Hour, c.cfg.CoverageTarget, c.cfg.MaxClusters)
	ids := make([][]int64, len(tracked))
	for i, cl := range tracked {
		tracked[i] = cl.Snapshot()
		ids[i] = tracked[i].MemberIDs()
	}
	return tracked, ids
}

// trainSpan is the span the training matrix covers: whole intervals of the
// training window ending at now.
func (c *Controller) trainSpan(now time.Time) (from, to time.Time) {
	from = now.Add(-c.cfg.TrainWindow).Truncate(c.cfg.Interval)
	// Never train on fabricated zeros from before the first observation.
	if first := c.firstSeen(); !first.IsZero() {
		if fs := first.Truncate(c.cfg.Interval); fs.After(from) {
			from = fs
		}
	}
	return from, now.Truncate(c.cfg.Interval)
}

// spikeMatrix builds the entire-history hourly matrix the HYBRID spike
// model trains on (§6.2): every whole hour from the earliest tracked
// member's first up to now.
func spikeMatrix(now time.Time, tracked []*cluster.Cluster) *mat.Matrix {
	var from time.Time
	for _, cl := range tracked {
		for _, t := range cl.Members {
			if start := t.History.Start(); from.IsZero() || start.Before(from) {
				from = start
			}
		}
	}
	if from.IsZero() {
		return mat.New(0, len(tracked))
	}
	return cluster.LogCenterMatrix(tracked, from.Truncate(time.Hour), now.Truncate(time.Hour), time.Hour)
}

// ClusterForecast is the prediction for one tracked cluster.
type ClusterForecast struct {
	// Cluster is the forecasted cluster as the serving epoch holds it:
	// immutable and shared by every forecast of that epoch, so callers may
	// read it without synchronization and must not modify it. Its member
	// templates — histories, counts, parameter samples — are as of the
	// maintenance pass that built the epoch; only the rates below are
	// computed from live data.
	Cluster *cluster.Cluster
	// MemberIDs are the cluster's member template IDs in ascending order,
	// shared with the epoch like Cluster (read-only).
	MemberIDs []int64
	// PerTemplateRate is the predicted average arrival rate of the
	// cluster's templates, in queries per interval.
	PerTemplateRate float64
	// TotalRate scales the center by the member count: the cluster's total
	// predicted volume per interval.
	TotalRate float64
}

// Forecast predicts the workload `horizon` into the future from the most
// recent data (§3: predictions always use the latest history as input). It
// reads the current epoch's models without blocking — maintenance and
// ingest keep running — and sums each tracked cluster's input window out of
// the live catalog (Preprocessor.Window), so the model input reflects
// arrivals ingested since the epoch was built and no history is copied.
// Each member is read at one instant under its stripe's lock, members one
// lock hold after another; there is no catalog-wide instant, and ingest
// landing between two reads shows in the later one only.
func (c *Controller) Forecast(horizon time.Duration) ([]ClusterForecast, error) {
	ep := c.cur.Load()
	if ep == nil {
		return nil, fmt.Errorf("core: no model trained for horizon %v", horizon)
	}
	m, ok := ep.models[horizon]
	if !ok {
		return nil, fmt.Errorf("core: no model trained for horizon %v", horizon)
	}
	recent := c.inputMatrix(ep)
	pred, err := m.Predict(recent)
	if err != nil {
		return nil, err
	}
	out := make([]ClusterForecast, 0, len(ep.tracked))
	cap := ep.maxTrainLog + 1
	for j, cl := range ep.tracked {
		p := pred[j]
		if p > cap {
			p = cap
		}
		rate := timeseries.Expm1Clamped(p)
		out = append(out, ClusterForecast{
			Cluster:         cl,
			MemberIDs:       ep.memberIDs[j],
			PerTemplateRate: rate,
			TotalRate:       rate * float64(len(cl.Members)),
		})
	}
	return out, nil
}

// inputMatrix builds a forecast's model input from the live catalog: the
// last lag intervals ending at the controller's clock, one column per
// tracked cluster, each value log1p of the members' mean arrivals. It is
// what cluster.LogCenterMatrix builds from cloned members, float for float —
// members are added in ascending ID order, then scaled, then logged — with
// every member read in place through Preprocessor.Window.
func (c *Controller) inputMatrix(ep *epoch) *mat.Matrix {
	now := c.LastSeen().Truncate(c.cfg.Interval)
	lag := c.lagIntervals()
	from := now.Add(-time.Duration(lag) * c.cfg.Interval)
	recent := mat.New(lag, len(ep.tracked))
	center := make([]float64, lag)
	for j, cl := range ep.tracked {
		ids := ep.memberIDs[j]
		if len(ids) == 0 {
			continue
		}
		clear(center)
		for _, id := range ids {
			if !c.pre.Window(id, center, from, c.cfg.Interval) {
				// Evicted from the catalog since the epoch was built: the
				// epoch's frozen copy is all that is left of it.
				cl.Members[id].History.Window(center, from, c.cfg.Interval)
			}
		}
		scale := 1 / float64(len(ids))
		for i, v := range center {
			recent.Set(i, j, timeseries.Log1pClamped(v*scale))
		}
	}
	return recent
}

// Snapshot persists the controller's durable state (the template catalog
// with arrival histories) as the preprocess layer's checksummed frame,
// streamed to w. Clusters and models are derived state and are rebuilt by
// the first Refresh after a restore.
func (c *Controller) Snapshot(w io.Writer) error {
	return c.pre.Snapshot(w)
}

// RestoreController rebuilds a controller from a snapshot stream, rejecting
// truncated, bit-flipped, or trailing-garbage input with a descriptive
// error before any state is decoded. The returned controller has an empty
// clustering/model state; call Refresh (or let Tick fire) to rebuild it
// from the restored histories.
func RestoreController(cfg Config, r io.Reader) (*Controller, error) {
	c := New(cfg)
	pre, err := preprocess.RestoreSnapshotCache(r, c.cfg.Shards, c.cfg.FingerprintCacheSize)
	if err != nil {
		return nil, err
	}
	c.pre = pre
	first, last := pre.SeenBounds()
	c.noteSeen(first)
	c.noteSeen(last)
	return c, nil
}

// Horizons lists the horizons with trained models, sorted ascending.
func (c *Controller) Horizons() []time.Duration {
	ep := c.cur.Load()
	if ep == nil {
		return nil
	}
	out := make([]time.Duration, 0, len(ep.models))
	for h := range ep.models {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
