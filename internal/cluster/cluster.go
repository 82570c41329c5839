// Package cluster implements QB5000's Clusterer (paper §5): an on-line
// variant of DBSCAN that groups query templates whose arrival-rate histories
// follow similar patterns, so a single forecasting model can cover each
// group.
//
// Unlike canonical DBSCAN, membership is decided against the cluster
// *center* (the arithmetic average of member features) rather than any core
// object, because the forecaster trains on the center. Each update period
// the clusterer runs three steps (Figure 4):
//
//  1. assign new templates to the closest center if similarity > ρ,
//     otherwise open a new cluster;
//  2. evict members whose similarity to their center dropped below ρ and
//     re-run step 1 on them (cascading moves are deferred to the next
//     period, so convergence is not guaranteed — matching the paper);
//  3. merge cluster pairs whose centers are more similar than ρ.
package cluster

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"qb5000/internal/kdtree"
	"qb5000/internal/mat"
	"qb5000/internal/parallel"
	"qb5000/internal/preprocess"
	"qb5000/internal/timeseries"
)

// FeatureMode selects which template representation drives clustering.
type FeatureMode int

const (
	// ArrivalRate clusters on sampled arrival-rate history vectors with
	// cosine similarity (the paper's approach, §5.1).
	ArrivalRate FeatureMode = iota
	// Logical clusters on the logical query-structure vector with an
	// L2-derived similarity (the AUTO-LOGICAL baseline, §7.7).
	Logical
)

// Options configure the clusterer.
type Options struct {
	// Rho is the similarity threshold ρ ∈ [0,1]; higher values demand more
	// similar members. The paper settles on 0.8 (Appendix A).
	Rho float64
	// FeatureSize is the number of sampled time points forming the arrival
	// feature vector. The paper uses 10k points over the trailing month;
	// the default here is 2048, which preserves the patterns at the scale
	// of the synthetic traces.
	FeatureSize int
	// FeatureWindow is how far back the sampled time points reach.
	FeatureWindow time.Duration
	// Seed drives timestamp sampling.
	Seed int64
	// Mode selects arrival-rate (default) or logical features.
	Mode FeatureMode
	// Parallelism bounds the worker pool used for the feature extraction,
	// similarity scans, and centroid updates: 0 selects GOMAXPROCS, 1 runs
	// fully sequentially. Results are identical at every setting.
	Parallelism int
}

// Cluster is a group of templates with similar arrival behaviour.
type Cluster struct {
	ID      int64
	Members map[int64]*preprocess.Template
	// center is the average of member feature vectors (unnormalized).
	center []float64
}

// Size returns the number of member templates.
func (c *Cluster) Size() int { return len(c.Members) }

// Snapshot returns a copy of the cluster with fresh maps, so a published
// forecasting epoch is immune to later Update passes mutating membership in
// place. The member templates themselves are the immutable clones the
// catalog handed to Update, so sharing them is safe.
func (c *Cluster) Snapshot() *Cluster {
	members := make(map[int64]*preprocess.Template, len(c.Members))
	for id, t := range c.Members {
		members[id] = t
	}
	return &Cluster{ID: c.ID, Members: members, center: append([]float64(nil), c.center...)}
}

// MemberIDs returns the sorted member template IDs.
func (c *Cluster) MemberIDs() []int64 {
	out := make([]int64, 0, len(c.Members))
	for id := range c.Members {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clusterer maintains the template → cluster mapping incrementally. It is
// safe for concurrent use: Update serializes behind a write lock while the
// read accessors (Len, Assignment, Cluster, Clusters) take a read lock
// (TestConcurrentReadersDuringUpdate runs them against Update under -race).
type Clusterer struct {
	opts Options
	rng  *rand.Rand

	// mu guards clusters, assignment and features.
	mu         sync.RWMutex
	clusters   map[int64]*Cluster
	assignment map[int64]int64 // template ID → cluster ID
	nextID     int64

	// Per-update state. stamps is only touched by Update's call chain and
	// read-only in pool workers.
	stamps   []time.Time
	features map[int64][]float64
}

// New creates a Clusterer.
func New(opts Options) *Clusterer {
	if opts.Rho == 0 {
		opts.Rho = 0.8
	}
	if opts.FeatureSize == 0 {
		opts.FeatureSize = 2048
	}
	if opts.FeatureWindow == 0 {
		opts.FeatureWindow = timeseries.DefaultFineWindow
	}
	return &Clusterer{
		opts:       opts,
		rng:        rand.New(rand.NewSource(opts.Seed)),
		clusters:   make(map[int64]*Cluster),
		assignment: make(map[int64]int64),
	}
}

// UpdateResult summarizes one clustering pass.
type UpdateResult struct {
	// Assigned counts templates newly placed into clusters.
	Assigned int
	// Moved counts templates evicted from one cluster and re-placed.
	Moved int
	// Merged counts cluster merges performed.
	Merged int
	// Removed counts templates dropped because they no longer exist in the
	// catalog.
	Removed int
	// Changed reports whether any assignment changed; the forecaster
	// retrains its models when it did (§3).
	Changed bool
}

// Update runs the three incremental steps against the current catalog at
// time now. Templates absent from the slice are dropped from their clusters.
// The feature extraction, eviction similarity scan, centroid updates, and
// merge scan run on a bounded worker pool (Options.Parallelism); the result
// is identical at every parallelism setting. The only error Update returns
// is a cancelled ctx (or a worker panic), in which case the clusterer must
// be treated as stale and refreshed by a later pass.
func (c *Clusterer) Update(ctx context.Context, now time.Time, templates []*preprocess.Template) (UpdateResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var res UpdateResult

	live := make(map[int64]*preprocess.Template, len(templates))
	for _, t := range templates {
		live[t.ID] = t
	}

	// Drop templates that were evicted from the catalog.
	for id, cid := range c.assignment {
		if _, ok := live[id]; ok {
			continue
		}
		c.removeMember(cid, id)
		delete(c.assignment, id)
		res.Removed++
		res.Changed = true
	}

	// Re-point surviving members at this round's template objects: callers
	// pass freshly cloned catalog snapshots, so keeping last round's
	// pointers would freeze Clusters/CenterSeries at stale histories.
	for id, cid := range c.assignment {
		if t, ok := live[id]; ok {
			c.clusters[cid].Members[id] = t
		}
	}

	// Compute this round's features for every live template.
	if err := c.computeFeatures(ctx, now, templates); err != nil {
		return res, err
	}
	if err := c.recomputeAllCenters(ctx); err != nil {
		return res, err
	}

	// Step 2: evict members that drifted away from their center. The
	// similarity of every member against its (snapshotted) center is
	// computed on the pool; evictions are then applied sequentially, so the
	// same set is evicted regardless of worker count.
	sims := make([]float64, len(templates))
	err := parallel.ForEach(ctx, c.opts.Parallelism, len(templates), func(_ context.Context, i int) error {
		// Read-only: the workers run while Update holds mu for writing.
		t := templates[i]
		cid, ok := c.assignment[t.ID]
		if !ok {
			return nil
		}
		sims[i] = c.similarity(c.features[t.ID], c.clusters[cid].center)
		return nil
	})
	if err != nil {
		return res, err
	}
	var unassigned []*preprocess.Template
	seen := make(map[int64]bool)
	for i, t := range templates {
		cid, ok := c.assignment[t.ID]
		if !ok {
			unassigned = append(unassigned, t)
			continue
		}
		seen[t.ID] = true
		if sims[i] < c.opts.Rho {
			c.removeMember(cid, t.ID)
			delete(c.assignment, t.ID)
			unassigned = append(unassigned, t)
			res.Moved++
			res.Changed = true
		}
	}

	// Step 1: place new and evicted templates near the closest center.
	tree := c.buildTree()
	for _, t := range unassigned {
		feat := c.features[t.ID]
		cid, ok := c.nearestCluster(tree, feat)
		if ok && c.similarity(feat, c.clusters[cid].center) >= c.opts.Rho {
			c.addMember(cid, t)
			// Keep the search tree in sync with the moved center.
			c.treeInsert(tree, c.clusters[cid])
		} else {
			cl := c.newCluster(t)
			c.treeInsert(tree, cl)
			cid = cl.ID
		}
		c.assignment[t.ID] = cid
		if !seen[t.ID] {
			res.Assigned++
		}
		res.Changed = true
	}

	// Step 3: merge clusters whose centers are closer than ρ.
	merged, err := c.mergeClusters(ctx)
	if err != nil {
		return res, err
	}
	res.Merged = merged
	if res.Merged > 0 {
		res.Changed = true
	}
	return res, nil
}

// computeFeatures samples this round's timestamps and builds each template's
// feature vector. The per-template history sampling — the clusterer's
// dominant cost, O(templates × FeatureSize) — runs on the pool: timestamps
// are drawn from the RNG once up front, each worker writes only its own
// template's slot, and the map is assembled sequentially afterwards.
//
// The caller holds c.mu.
func (c *Clusterer) computeFeatures(ctx context.Context, now time.Time, templates []*preprocess.Template) error {
	c.features = make(map[int64][]float64, len(templates))
	if c.opts.Mode == Logical {
		for _, t := range templates {
			c.features[t.ID] = t.Features.LogicalVector()
		}
		return nil
	}
	c.stamps = timeseries.SampleTimestamps(c.rng, now.Add(-c.opts.FeatureWindow), now, c.opts.FeatureSize)
	feats := make([][]float64, len(templates))
	err := parallel.ForEach(ctx, c.opts.Parallelism, len(templates), func(_ context.Context, i int) error {
		feat := make([]float64, len(c.stamps))
		for j, ts := range c.stamps {
			feat[j] = templates[i].History.At(ts)
		}
		feats[i] = feat
		return nil
	})
	if err != nil {
		return err
	}
	for i, t := range templates {
		c.features[t.ID] = feats[i]
	}
	return nil
}

// recomputeAllCenters refreshes every cluster's center against this round's
// features. Each worker owns one cluster, so the writes never overlap.
//
// The caller holds c.mu.
func (c *Clusterer) recomputeAllCenters(ctx context.Context) error {
	ids := c.clusterIDs()
	return parallel.ForEach(ctx, c.opts.Parallelism, len(ids), func(_ context.Context, i int) error {
		// Each worker owns one cluster; Update holds mu for the pool's lifetime.
		c.recomputeCenter(c.clusters[ids[i]])
		return nil
	})
}

// similarity is cosine for arrival-rate features and an L2-derived score in
// (0,1] for logical features, so the ρ threshold is meaningful in both modes.
func (c *Clusterer) similarity(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	if c.opts.Mode == Logical {
		var d2 float64
		for i := range a {
			d := a[i] - b[i]
			d2 += d * d
		}
		return 1 / (1 + math.Sqrt(d2))
	}
	return mat.CosineSimilarity(a, b)
}

// newCluster opens a cluster around t; the caller holds c.mu.
func (c *Clusterer) newCluster(t *preprocess.Template) *Cluster {
	c.nextID++
	cl := &Cluster{
		ID:      c.nextID,
		Members: map[int64]*preprocess.Template{t.ID: t},
		center:  append([]float64(nil), c.features[t.ID]...),
	}
	c.clusters[cl.ID] = cl
	return cl
}

// addMember places t in cluster cid; the caller holds c.mu.
func (c *Clusterer) addMember(cid int64, t *preprocess.Template) {
	cl := c.clusters[cid]
	cl.Members[t.ID] = t
	c.recomputeCenter(cl)
}

// removeMember drops template tid from cluster cid, and the cluster with
// its last member; the caller holds c.mu.
func (c *Clusterer) removeMember(cid, tid int64) {
	cl, ok := c.clusters[cid]
	if !ok {
		return
	}
	delete(cl.Members, tid)
	if len(cl.Members) == 0 {
		delete(c.clusters, cid)
		return
	}
	c.recomputeCenter(cl)
}

// recomputeCenter sets the cluster center to the arithmetic average of its
// members' current feature vectors (§5.2 step 1). Members are visited in
// sorted ID order: float addition is not associative, so summing in map
// iteration order would make the center's low bits vary run to run.
//
// The caller holds c.mu.
func (c *Clusterer) recomputeCenter(cl *Cluster) {
	ids := cl.MemberIDs()
	var dim int
	for _, id := range ids {
		if d := len(c.features[id]); d != 0 {
			dim = d
			break
		}
	}
	if dim == 0 {
		return
	}
	center := make([]float64, dim)
	n := 0
	for _, id := range ids {
		feat := c.features[id]
		if len(feat) != dim {
			continue
		}
		for i, v := range feat {
			center[i] += v
		}
		n++
	}
	if n == 0 {
		return
	}
	inv := 1 / float64(n)
	for i := range center {
		center[i] *= inv
	}
	cl.center = center
}

// buildTree indexes normalized cluster centers for nearest-center lookup.
//
// The caller holds c.mu.
func (c *Clusterer) buildTree() *kdtree.Tree {
	dim := c.featureDim()
	if dim == 0 {
		return nil
	}
	tree := kdtree.New(dim)
	for _, cl := range c.clusters {
		c.treeInsert(tree, cl)
	}
	return tree
}

// featureDim is the length of this round's feature vectors; the caller
// holds c.mu.
func (c *Clusterer) featureDim() int {
	for _, f := range c.features {
		return len(f)
	}
	return 0
}

func (c *Clusterer) treeInsert(tree *kdtree.Tree, cl *Cluster) {
	if tree == nil || len(cl.center) != tree.Dim() {
		return
	}
	if err := tree.Insert(cl.ID, normalize(cl.center)); err != nil {
		panic(err) // dimensions are checked above
	}
}

// nearestCluster returns the live cluster whose center is nearest feat;
// the caller holds c.mu.
func (c *Clusterer) nearestCluster(tree *kdtree.Tree, feat []float64) (int64, bool) {
	if tree == nil || tree.Len() == 0 || len(feat) != tree.Dim() {
		return 0, false
	}
	id, _, _, ok := tree.Nearest(normalize(feat))
	if !ok {
		return 0, false
	}
	if _, exists := c.clusters[id]; !exists {
		return 0, false
	}
	return id, true
}

func normalize(v []float64) []float64 {
	n := mat.Norm2(v)
	out := make([]float64, len(v))
	if n == 0 {
		return out
	}
	for i, x := range v {
		out[i] = x / n
	}
	return out
}

// mergeClusters repeatedly merges the pair of clusters whose centers are
// more similar than ρ until no such pair remains, returning the number of
// merges. Each round's O(k²) pair scan fans out over the rows of the upper
// triangle; every worker records the best partner for its own rows, and the
// sequential reduction over rows reproduces the exact pair the serial
// double loop would pick (ties broken by ascending ID order).
//
// The caller holds c.mu.
func (c *Clusterer) mergeClusters(ctx context.Context) (int, error) {
	merged := 0
	for {
		ids := c.clusterIDs()
		type rowBest struct {
			sim float64
			j   int64
		}
		rows := make([]rowBest, len(ids))
		err := parallel.ForEach(ctx, c.opts.Parallelism, len(ids), func(_ context.Context, i int) error {
			// Read-only: the workers run while Update holds mu for writing.
			best := rowBest{sim: -1}
			a := c.clusters[ids[i]]
			for j := i + 1; j < len(ids); j++ {
				b := c.clusters[ids[j]]
				if s := c.similarity(a.center, b.center); s >= c.opts.Rho && s > best.sim {
					best = rowBest{sim: s, j: ids[j]}
				}
			}
			rows[i] = best
			return nil
		})
		if err != nil {
			return merged, err
		}
		var bestA, bestB int64
		best := -1.0
		for i, rb := range rows {
			if rb.sim > best {
				best, bestA, bestB = rb.sim, ids[i], rb.j
			}
		}
		if best < 0 {
			return merged, nil
		}
		dst, src := c.clusters[bestA], c.clusters[bestB]
		for id, t := range src.Members {
			dst.Members[id] = t
			c.assignment[id] = dst.ID
		}
		delete(c.clusters, src.ID)
		c.recomputeCenter(dst)
		merged++
	}
}

// clusterIDs returns the live cluster IDs in ascending order; the caller
// holds c.mu.
func (c *Clusterer) clusterIDs() []int64 {
	ids := make([]int64, 0, len(c.clusters))
	for id := range c.clusters {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Len returns the number of live clusters.
func (c *Clusterer) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.clusters)
}

// Assignment returns the cluster ID a template currently belongs to.
func (c *Clusterer) Assignment(templateID int64) (int64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cid, ok := c.assignment[templateID]
	return cid, ok
}

// Cluster returns the cluster with the given ID.
func (c *Clusterer) Cluster(id int64) (*Cluster, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl, ok := c.clusters[id]
	return cl, ok
}

// Ranked is a cluster together with the volume Clusters ranked it by.
type Ranked struct {
	*Cluster
	Volume float64
}

// Clusters returns all clusters sorted by descending volume over the window
// [now-window, now), then by ID for determinism.
func (c *Clusterer) Clusters(now time.Time, window time.Duration) []Ranked {
	c.mu.RLock()
	out := make([]Ranked, 0, len(c.clusters))
	for _, cl := range c.clusters {
		// Update rewrites a cluster's members under the write lock, so the
		// volume is summed before the read lock is released.
		out = append(out, Ranked{Cluster: cl, Volume: volume(cl, now, window)})
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		//lint:ignore floateq exact compare keeps the order a strict weak ordering; an epsilon would break transitivity
		if out[i].Volume != out[j].Volume {
			return out[i].Volume > out[j].Volume
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// volume returns the total query volume of the cluster's members over
// [now-window, now), a whole number of minutes. Members are summed in sorted
// ID order so the float total is bit-identical across runs.
func volume(cl *Cluster, now time.Time, window time.Duration) float64 {
	var total [1]float64
	from := now.Add(-window)
	for _, id := range cl.MemberIDs() {
		cl.Members[id].History.Window(total[:], from, window)
	}
	return total[0]
}

// Top returns the highest-volume clusters over [now-window, now), largest
// first: the smallest leading set covering the `cover` fraction of the
// window's total volume, capped at maxK. It is the cut that decides which
// clusters get a model (§5.3, §7.2).
func (c *Clusterer) Top(now time.Time, window time.Duration, cover float64, maxK int) []*Cluster {
	ranked := c.Clusters(now, window)
	var total float64
	for _, r := range ranked {
		total += r.Volume
	}
	var out []*Cluster
	var covered float64
	for _, r := range ranked {
		if len(out) >= maxK {
			break
		}
		out = append(out, r.Cluster)
		covered += r.Volume
		if total > 0 && covered/total >= cover {
			break
		}
	}
	return out
}

// Coverage returns the fraction of total workload volume over the window
// covered by the k highest-volume clusters (Figure 5).
func (c *Clusterer) Coverage(k int, now time.Time, window time.Duration) float64 {
	var top, total float64
	for i, r := range c.Clusters(now, window) {
		total += r.Volume
		if i < k {
			top += r.Volume
		}
	}
	if total == 0 {
		return 0
	}
	return top / total
}

// CenterSeries returns the average arrival-rate series of the cluster's
// members over [from, to) at the given interval, a whole number of minutes —
// the signal the forecaster trains on (§5.1, Figure 3).
func CenterSeries(cl *Cluster, from, to time.Time, interval time.Duration) *timeseries.Series {
	out := timeseries.NewSeries(from, interval)
	n := int(to.Sub(out.Start) / interval)
	if n < 0 {
		n = 0
	}
	out.Data = make([]float64, n)
	if len(cl.Members) == 0 || n == 0 {
		return out
	}
	// Sorted member order keeps the per-bin float sums bit-identical.
	for _, id := range cl.MemberIDs() {
		cl.Members[id].History.Window(out.Data, out.Start, interval)
	}
	out.Scale(1 / float64(len(cl.Members)))
	return out
}

// LogCenterMatrix builds the matrix every model trains on and predicts
// from: one row per interval of [from, to), one column per cluster, each
// value log1p of the cluster's CenterSeries.
func LogCenterMatrix(cls []*Cluster, from, to time.Time, interval time.Duration) *mat.Matrix {
	rows := int(to.Sub(from) / interval)
	if rows < 0 {
		rows = 0
	}
	m := mat.New(rows, len(cls))
	for j, cl := range cls {
		// CenterSeries starts at from truncated to the interval, so it never
		// has fewer than rows bins.
		for i, v := range CenterSeries(cl, from, to, interval).Data[:rows] {
			m.Set(i, j, timeseries.Log1pClamped(v))
		}
	}
	return m
}
