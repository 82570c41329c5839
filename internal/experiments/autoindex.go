package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"qb5000/internal/cluster"
	"qb5000/internal/core"
	"qb5000/internal/engine"
	"qb5000/internal/indexsel"
	"qb5000/internal/preprocess"
	"qb5000/internal/sqlparse"
	"qb5000/internal/workload"
)

func init() {
	register("fig11", "Automatic index selection on Admissions (Figure 11)", func(o Options, w io.Writer) error {
		return autoIndex(o, w, "admissions")
	})
	register("fig12", "Automatic index selection on BusTracker (Figure 12)", func(o Options, w io.Writer) error {
		return autoIndex(o, w, "bustracker")
	})
}

// indexPolicy names one of the three compared strategies (§7.6/§7.7).
type indexPolicy string

const (
	policyAuto        indexPolicy = "AUTO"         // QB5000 forecasts drive hourly builds
	policyStatic      indexPolicy = "STATIC"       // all indexes chosen up-front from history
	policyAutoLogical indexPolicy = "AUTO-LOGICAL" // AUTO with logical-feature clustering
)

// autoIndexParams sizes the replay.
type autoIndexParams struct {
	scale        int           // rows in the largest table
	historyDays  int           // days of history for training QB5000
	hoursTotal   int           // experiment length (paper: 16)
	tickEvery    time.Duration // measurement tick
	queriesTick  int           // queries sampled per tick
	indexBudget  int           // total indexes (paper: 20)
	perTickBuild int           // index builds per hour
}

func autoIndexDefaults(opt Options) autoIndexParams {
	p := autoIndexParams{
		scale:       30000,
		historyDays: 21,
		hoursTotal:  16,
		tickEvery:   20 * time.Minute,
		queriesTick: 60,
		indexBudget: 4,
	}
	if opt.Quick {
		p.scale = 8000
		p.historyDays = 10
		p.hoursTotal = 8
		p.queriesTick = 40
		p.indexBudget = 3
	}
	return p
}

func autoIndex(opt Options, w io.Writer, name string) error {
	p := autoIndexDefaults(opt)
	results := make(map[indexPolicy]*replayMetrics)
	for _, pol := range []indexPolicy{policyAuto, policyStatic, policyAutoLogical} {
		m, err := runIndexPolicy(opt, name, pol, p)
		if err != nil {
			return fmt.Errorf("%s: %w", pol, err)
		}
		results[pol] = m
	}

	fmt.Fprintf(w, "simulated replay: %d hours, %d-row tables, %d index budget\n",
		p.hoursTotal, p.scale, p.indexBudget)
	fmt.Fprintf(w, "%-6s", "hour")
	for _, pol := range []indexPolicy{policyStatic, policyAuto, policyAutoLogical} {
		fmt.Fprintf(w, " | %13s tput  p99(ms)", pol)
	}
	fmt.Fprintln(w)
	n := len(results[policyAuto].hours)
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%-6.1f", results[policyAuto].hours[i])
		for _, pol := range []indexPolicy{policyStatic, policyAuto, policyAutoLogical} {
			m := results[pol]
			fmt.Fprintf(w, " | %13.0f q/s  %7.2f", m.throughput[i], m.p99ms[i])
		}
		fmt.Fprintln(w)
	}
	for _, pol := range []indexPolicy{policyStatic, policyAuto, policyAutoLogical} {
		m := results[pol]
		fmt.Fprintf(w, "%-13s built %d indexes; final-quarter throughput %.0f q/s, p99 %.2f ms\n",
			pol, m.indexesBuilt, m.finalThroughput(), m.finalP99())
	}
	if sa, st := results[policyAuto].finalThroughput(), results[policyStatic].finalThroughput(); st > 0 {
		fmt.Fprintf(w, "AUTO vs STATIC final throughput: %+.0f%%\n", 100*(sa/st-1))
	}
	if sa, sl := results[policyAuto].finalThroughput(), results[policyAutoLogical].finalThroughput(); sl > 0 {
		fmt.Fprintf(w, "AUTO-LOGICAL vs AUTO final throughput: %+.0f%%\n", 100*(sl/sa-1))
	}
	return nil
}

// replayMetrics collects per-tick simulated performance.
type replayMetrics struct {
	hours        []float64
	throughput   []float64 // simulated queries/second
	p99ms        []float64
	indexesBuilt int
}

func (m *replayMetrics) finalThroughput() float64 {
	n := len(m.throughput)
	if n == 0 {
		return 0
	}
	from := n * 3 / 4
	var s float64
	for _, v := range m.throughput[from:] {
		s += v
	}
	return s / float64(n-from)
}

func (m *replayMetrics) finalP99() float64 {
	n := len(m.p99ms)
	if n == 0 {
		return 0
	}
	from := n * 3 / 4
	var s float64
	for _, v := range m.p99ms[from:] {
		s += v
	}
	return s / float64(n-from)
}

func pickWorkload(name string, seed int64) *workload.Workload {
	switch name {
	case "admissions":
		return workload.Admissions(seed)
	default:
		return workload.BusTracker(seed + 1)
	}
}

// experimentStart picks when the 16-hour window begins: for Admissions the
// run-up to the Dec 1 deadline (so forecasting matters), for BusTracker a
// weekday after enough history accrued.
func experimentStart(name string, wl *workload.Workload, historyDays int) time.Time {
	if name == "admissions" {
		return time.Date(2017, time.November, 29, 6, 0, 0, 0, time.UTC)
	}
	return wl.Start.Add(time.Duration(historyDays)*24*time.Hour + 6*time.Hour)
}

func runIndexPolicy(opt Options, name string, pol indexPolicy, p autoIndexParams) (*replayMetrics, error) {
	seed := opt.seed()
	wl := pickWorkload(name, seed)
	expStart := experimentStart(name, wl, p.historyDays)
	histFrom := expStart.Add(-time.Duration(p.historyDays) * 24 * time.Hour)
	expEnd := expStart.Add(time.Duration(p.hoursTotal) * time.Hour)

	// Engine with data but no secondary indexes.
	eng := engine.New()
	if err := workload.SetupEngine(eng, name, p.scale, seed+100); err != nil {
		return nil, err
	}

	// QB5000 controller trained on history (LR family for replay speed;
	// the forecasting-quality comparison across families is fig7's job).
	mode := cluster.ArrivalRate
	if pol == policyAutoLogical {
		mode = cluster.Logical
	}
	ctl := core.New(core.Config{
		Model:       "LR",
		Horizons:    []time.Duration{time.Hour, 12 * time.Hour},
		FeatureMode: mode,
		Seed:        seed,
		Shards:      1, // reproducible template IDs in experiment output
	})
	err := wl.Replay(histFrom, expStart, 10*time.Minute, func(ev workload.Event) error {
		return ctl.Ingest(ev.SQL, ev.At, ev.Count)
	})
	if err != nil {
		return nil, err
	}
	if err := ctl.Refresh(context.Background(), expStart); err != nil {
		return nil, err
	}

	sel := indexsel.New(eng)
	metrics := &replayMetrics{}
	// The measurement sampler is seeded identically for every policy so the
	// three replays execute the same query sequence — differences in
	// throughput then come only from the index configurations.
	rng := rand.New(rand.NewSource(seed + 41))

	buildIndexes := func(cands []indexsel.Candidate, limit int) {
		for _, c := range cands {
			if limit <= 0 {
				return
			}
			if t, ok := eng.Table(c.Table); ok && t.HasIndexOn(c.Columns) {
				continue
			}
			if _, _, err := eng.CreateIndex(c.Table, c.Columns); err == nil {
				metrics.indexesBuilt++
				limit--
			}
		}
	}

	if pol == policyStatic {
		// STATIC selects from a fixed sample over the *entire* query
		// history (§7.6) — for Admissions that reaches back through last
		// year's review season, so part of its budget goes to indexes the
		// upcoming pre-deadline window never exercises. A separate RNG
		// keeps the measurement sampler's sequence identical across
		// policies.
		histRng := rand.New(rand.NewSource(seed + 67))
		queries := historicalSample(wl, wl.Start, expStart, 400, histRng)
		cands := sel.Select(queries, p.indexBudget, existingIndexes(eng))
		buildIndexes(cands, p.indexBudget)
	}

	perHourBudget := p.indexBudget / p.hoursTotal
	if perHourBudget < 1 {
		perHourBudget = 1
	}
	nextBuild := expStart

	for tick := expStart; tick.Before(expEnd); tick = tick.Add(p.tickEvery) {
		// Hourly: AUTO policies forecast and build.
		if pol != policyStatic && !tick.Before(nextBuild) && metrics.indexesBuilt < p.indexBudget {
			queries := forecastQueries(ctl)
			if len(queries) > 0 {
				cands := sel.Select(queries, perHourBudget, existingIndexes(eng))
				buildIndexes(cands, min(perHourBudget, p.indexBudget-metrics.indexesBuilt))
			}
			nextBuild = nextBuild.Add(time.Hour)
		}

		// Sample and execute queries for this tick.
		var units []float64
		sample := sampleQueries(wl, tick, p.queriesTick, rng)
		for _, q := range sample {
			res, err := eng.Execute(q)
			if err != nil {
				return nil, fmt.Errorf("execute %q: %w", q, err)
			}
			units = append(units, res.Cost.Units())
		}
		if len(units) == 0 {
			continue
		}
		var total float64
		for _, u := range units {
			total += u
		}
		avg := total / float64(len(units))
		sort.Float64s(units)
		p99 := units[len(units)*99/100]
		// One cost unit ≙ one simulated microsecond.
		metrics.hours = append(metrics.hours, tick.Sub(expStart).Hours())
		metrics.throughput = append(metrics.throughput, 1e6/avg)
		metrics.p99ms = append(metrics.p99ms, p99/1e3)
	}
	return metrics, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// existingIndexes snapshots the engine's current index configuration.
func existingIndexes(eng *engine.Engine) map[string][][]string {
	out := make(map[string][][]string)
	for _, t := range eng.Tables() {
		for _, ix := range t.Indexes() {
			out[t.Name] = append(out[t.Name], ix.Columns)
		}
	}
	return out
}

// forecastQueries converts QB5000's predictions into the weighted query
// sample the index selector consumes: each tracked cluster's predicted
// volume is split across its member templates' sampled instantiations. The
// shorter horizon is weighted higher (§7.6).
func forecastQueries(ctl *core.Controller) []indexsel.WeightedQuery {
	// A fixed slice (not a map) keeps the emitted query order stable.
	horizons := []struct {
		h time.Duration
		w float64
	}{{time.Hour, 2}, {12 * time.Hour, 1}}
	var out []indexsel.WeightedQuery
	for _, hw := range horizons {
		preds, err := ctl.Forecast(hw.h)
		if err != nil {
			continue
		}
		for _, p := range preds {
			if p.TotalRate <= 0 {
				continue
			}
			ids := p.MemberIDs
			for _, id := range ids {
				t, ok := ctl.Preprocessor().Template(id)
				if !ok {
					continue
				}
				samples := t.Params.Sample()
				if len(samples) > 3 {
					samples = samples[:3]
				}
				if len(samples) == 0 {
					samples = [][]string{nil}
				}
				wq := hw.w * p.TotalRate / float64(len(ids)*len(samples))
				for _, ps := range samples {
					sql := preprocess.Instantiate(t.SQL, ps)
					stmt, err := sqlparse.Parse(sql)
					if err != nil {
						continue
					}
					out = append(out, indexsel.WeightedQuery{SQL: sql, Stmt: stmt, Weight: wq})
				}
			}
		}
	}
	return out
}

// historicalSample draws concrete queries uniformly over the history span
// for the STATIC baseline.
func historicalSample(wl *workload.Workload, from, to time.Time, n int, rng *rand.Rand) []indexsel.WeightedQuery {
	span := to.Sub(from)
	var out []indexsel.WeightedQuery
	for len(out) < n {
		at := from.Add(time.Duration(rng.Int63n(int64(span))))
		qs := sampleQueries(wl, at, 4, rng)
		for _, q := range qs {
			stmt, err := sqlparse.Parse(q)
			if err != nil {
				continue
			}
			out = append(out, indexsel.WeightedQuery{SQL: q, Stmt: stmt, Weight: 1})
		}
	}
	return out
}

// sampleQueries draws n concrete queries from the workload's shape
// distribution at time at (proportional to each shape's rate).
func sampleQueries(wl *workload.Workload, at time.Time, n int, rng *rand.Rand) []string {
	type sh struct {
		gen  func(*rand.Rand, time.Time) string
		rate float64
	}
	var shapes []sh
	var total float64
	for _, s := range wl.Shapes {
		if !s.ActiveFrom.IsZero() && at.Before(s.ActiveFrom) {
			continue
		}
		r := s.Rate(at)
		if r <= 0 {
			continue
		}
		shapes = append(shapes, sh{s.Gen, r})
		total += r
	}
	if total == 0 || len(shapes) == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		pick := rng.Float64() * total
		for _, s := range shapes {
			pick -= s.rate
			if pick <= 0 {
				out = append(out, s.gen(rng, at))
				break
			}
		}
	}
	return out
}
