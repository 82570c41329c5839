package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"qb5000"
	"qb5000/internal/admission"
	"qb5000/internal/cluster"
	"qb5000/internal/forecast"
	"qb5000/internal/mat"
	"qb5000/internal/preprocess"
	"qb5000/internal/server"
	"qb5000/internal/sqlparse"
	"qb5000/internal/timeseries"
	"qb5000/internal/tracefile"
)

// The traced run times each layer from outside, at its exported entry point,
// on the input the daemon just served. Layers nest (ServeHTTP calls
// tracefile.Read and ObserveMany, which calls ProcessMany, …), so a layer's
// span is recorded as a child of the layer that would have called it and its
// self time is its own duration minus its children's. The replay runs
// between daemon requests, never beside them, so twin and daemon do not
// compete for a core.

// Sizes of the traced run's sampled observe traffic and repeated calls.
const (
	sampleRequests = 120 // sent untraced, then as many again traced
	forecastRepeat = 8
	shedRepeat     = 200
	gateRepeat     = 100000
	// warmBodies is how many requests pre-fill the daemon's and the
	// observe-path twins' caches: 256 bodies are 65,536 lines, the cache's
	// capacity.
	warmBodies = 256
)

// span is one timed call. Parent is the span of the layer that calls this
// one in the running system (0 for a root); spans of one request share its
// number.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// selfTimes returns each span's self time in nanoseconds, keyed by span ID.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndNS - s.StartNS
		if s.Parent != 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// daemonConfig is the configuration daemonFlags gives the daemon, for the
// in-process twins.
func daemonConfig() qb5000.Config {
	return qb5000.Config{
		Model:                daemonModel,
		Horizons:             []time.Duration{daemonHorizon},
		Seed:                 1, // qb5000d's -seed default
		Shards:               daemonShards,
		FingerprintCacheSize: daemonFPCache,
	}
}

// twin is an in-process copy of the daemon: the same constructors, the same
// configuration, fed the same input in the same order.
type twin struct {
	f *qb5000.Forecaster
	h http.Handler
}

func newTwin() *twin {
	f := qb5000.New(daemonConfig())
	return &twin{f: f, h: server.NewWithConfig(f, server.Config{MaxInflight: daemonMaxInflight}).Handler()}
}

func (tw *twin) serve(method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	tw.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

func (tw *twin) observe(body []byte) { tw.serve(http.MethodPost, "/observe", body) }

// tracer collects the spans and counts of one traced run.
type tracer struct {
	spans   []span
	request int

	// twin follows the daemon through the sequential phases and is the
	// oracle for its catalog and forecasts; following stops at the first
	// restart, which the twin does not mirror.
	twin      *twin
	following bool
	// clu shadows the twin controller's clusterer, updated at the same
	// instants with the same templates, so cluster.Update can be timed on
	// its own without disturbing the controller's state.
	clu *cluster.Clusterer
	// model and recent are the last fitted shadow model and its input, for
	// timing Predict.
	model  forecast.Model
	recent *mat.Matrix

	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{
		twin:      newTwin(),
		following: true,
		clu:       cluster.New(cluster.Options{Rho: 0.8, Seed: daemonConfig().Seed + 1}),
		counts:    make(map[string]float64),
	}
}

// time records fn as a span and returns the span's ID.
func (t *tracer) time(name string, parent int, fn func()) int {
	id := len(t.spans) + 1
	start := nowNS()
	fn()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: t.request, Name: name, StartNS: start, EndNS: nowNS()})
	return id
}

// maintainTwin mirrors a daemon /maintain on the twin and times the stages of
// the maintenance pass on the twin's state.
func (t *tracer) maintainTwin() error {
	if !t.following {
		return nil
	}
	t.request++
	ctl := t.twin.f.Controller()
	pre := ctl.Preprocessor()
	now := ctl.LastSeen()
	ctx := context.Background()
	var err error
	refresh := t.time("core.Refresh", 0, func() { err = ctl.Refresh(ctx, now) })
	if err != nil {
		return fmt.Errorf("twin maintain: %w", err)
	}
	t.time("preprocess.Maintain", refresh, func() { pre.Maintain(now) })
	var ts []*preprocess.Template
	t.time("preprocess.Templates", refresh, func() { ts = pre.Templates() })
	t.time("cluster.Update", refresh, func() { _, err = t.clu.Update(ctx, now, ts) })
	if err != nil {
		return fmt.Errorf("shadow cluster update: %w", err)
	}
	return t.fit(refresh, now)
}

// fit times a HYBRID fit on a matrix of the epoch's shape: one column per
// tracked cluster, one row per hour since the first observation, log1p of
// the cluster-center arrival rate.
func (t *tracer) fit(parent int, now time.Time) error {
	tracked := t.twin.f.Controller().Tracked()
	to := now.Truncate(time.Hour)
	rows := int(to.Sub(historyStart) / time.Hour)
	hist := mat.New(rows, len(tracked))
	for j, cl := range tracked {
		s := cluster.CenterSeries(cl, historyStart, to, time.Hour)
		for i := 0; i < rows && i < s.Len(); i++ {
			hist.Set(i, j, timeseries.Log1pClamped(s.Data[i]))
		}
	}
	const lag = 24
	m, err := forecast.NewByName("HYBRID", forecast.Config{Lag: lag, Horizon: 1, Outputs: len(tracked), Seed: daemonConfig().Seed + 60})
	if err != nil {
		return err
	}
	t.time("forecast.Fit", parent, func() { err = m.Fit(hist) })
	if err != nil {
		return fmt.Errorf("shadow fit: %w", err)
	}
	t.model = m
	t.recent = mat.New(lag, len(tracked))
	for i := 0; i < lag; i++ {
		copy(t.recent.Row(i), hist.Row(rows-lag+i))
	}
	return nil
}

// compareTwin is the oracle part of the correctness gate: after the same
// sequential input and maintains at the same simulated instants, the
// daemon's catalog must equal the twin's exactly and its forecast rates to
// 1e-9 relative.
func (t *tracer) compareTwin(r *run) error {
	var got, want []qb5000.TemplateInfo
	if err := r.request(r.d.ctl.getJSON(http.MethodGet, "/templates", &got)); err != nil {
		return err
	}
	if err := json.Unmarshal(t.twin.serve(http.MethodGet, "/templates", nil).Body.Bytes(), &want); err != nil {
		return err
	}
	if len(got) != len(want) {
		r.problem("daemon has %d templates, twin %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i].ID != want[i].ID || got[i].SQL != want[i].SQL || got[i].Count != want[i].Count {
				r.problem("template %d: daemon {%d %q %d}, twin {%d %q %d}", i,
					got[i].ID, got[i].SQL, got[i].Count, want[i].ID, want[i].SQL, want[i].Count)
				break
			}
		}
	}
	fc, _, err := r.forecast()
	if err != nil {
		return err
	}
	var twinFC []qb5000.ClusterForecast
	if err := json.Unmarshal(t.twin.serve(http.MethodGet, forecastPath, nil).Body.Bytes(), &twinFC); err != nil {
		return err
	}
	if len(fc) != len(twinFC) {
		r.problem("daemon forecasts %d clusters, twin %d", len(fc), len(twinFC))
		return nil
	}
	for i := range fc {
		d, w := fc[i], twinFC[i]
		if d.ClusterID != w.ClusterID || len(d.Templates) != len(w.Templates) ||
			math.Abs(d.TotalRate-w.TotalRate) > 1e-9*math.Abs(w.TotalRate) {
			r.problem("forecast %d: daemon cluster %d rate %v over %d templates, twin cluster %d rate %v over %d",
				i, d.ClusterID, d.TotalRate, len(d.Templates), w.ClusterID, w.TotalRate, len(w.Templates))
		}
	}
	return nil
}

// sequential runs once the sequential phases are over (before the first
// restart): it checks the daemon against the twin, then times the forecast
// and snapshot layers on the twin's state.
func (t *tracer) sequential(r *run) error {
	if err := t.compareTwin(r); err != nil {
		return err
	}
	t.following = false
	ctl := t.twin.f.Controller()
	pre := ctl.Preprocessor()

	var ids []int64
	for _, cl := range ctl.Tracked() {
		ids = append(ids, cl.MemberIDs()...)
	}
	t.counts["core.tracked_members"] = float64(len(ids))
	t.counts["cluster.clusters"] = float64(t.twin.f.Stats().Clusters)
	t.counts["preprocess.history_mb"] = float64(pre.HistoryBytes()) / (1 << 20)
	var err error
	for i := 0; i < forecastRepeat; i++ {
		t.request++
		var rec *httptest.ResponseRecorder
		root := t.time("server.ServeHTTP(/forecast)", 0, func() { rec = t.twin.serve(http.MethodGet, forecastPath, nil) })
		t.counts["server.forecast_bytes"] = float64(rec.Body.Len())
		api := t.time("qb5000.Forecast", root, func() { _, err = t.twin.f.Forecast(time.Hour) })
		if err != nil {
			return err
		}
		core := t.time("core.Forecast", api, func() { _, err = ctl.Forecast(time.Hour) })
		if err != nil {
			return err
		}
		t.time("preprocess.CloneByID", core, func() { pre.CloneByID(ids) })
		t.time("forecast.Predict", core, func() { _, err = t.model.Predict(t.recent) })
		if err != nil {
			return err
		}
	}

	t.request++
	var whole, body bytes.Buffer
	path := filepath.Join(r.d.dir, "twin.snap")
	file := t.time("qb5000.SaveFile", 0, func() { err = t.twin.f.SaveFile(path) })
	if err != nil {
		return err
	}
	save := t.time("qb5000.Save", file, func() { err = t.twin.f.Save(&whole) })
	if err != nil {
		return err
	}
	t.time("preprocess.Snapshot", save, func() { err = pre.Snapshot(&body) })
	if err != nil {
		return err
	}
	t.time("preprocess.RestoreSnapshotCache", 0, func() {
		_, err = preprocess.RestoreSnapshotCache(&body, daemonShards, daemonFPCache)
	})
	return err
}

// shed times the cost of a shed /observe: ServeHTTP against a gate whose one
// permit is held by a request still reading its body.
func (t *tracer) shed(body []byte) error {
	f := qb5000.New(daemonConfig())
	h := server.NewWithConfig(f, server.Config{MaxInflight: 1}).Handler()
	pr, pw := io.Pipe()
	held := make(chan struct{})
	go func() {
		defer close(held)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/observe", pr))
	}()
	// A pipe write returns once the handler reads it, which it does only
	// after taking the permit.
	if _, err := pw.Write(body[:bytes.IndexByte(body, '\n')+1]); err != nil {
		return err
	}
	var code int
	t.request++
	t.time("server.ServeHTTP(shed)", 0, func() {
		for i := 0; i < shedRepeat; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/observe", bytes.NewReader(body)))
			code = rec.Code
		}
	})
	err := pw.Close()
	<-held
	if code != http.StatusTooManyRequests {
		return fmt.Errorf("held gate answered %d, want 429", code)
	}
	return err
}

// gate times an uncontended TryAcquire+Release pair.
func (t *tracer) gate() error {
	g := admission.New(admission.Options{MaxInflight: daemonMaxInflight})
	pair := func() error {
		if err := g.TryAcquire(1); err != nil {
			return err
		}
		defer g.Release(1)
		return nil
	}
	var err error
	t.request++
	t.time("admission.TryAcquire+Release", 0, func() {
		for i := 0; i < gateRepeat && err == nil; i++ {
			err = pair()
		}
	})
	return err
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sample is the traced run's last phase: sampleRequests requests of the
// workload's observe traffic on one connection untraced, then as many again
// recorded as root spans, then a replay of the recorded bodies through every
// layer beneath the socket.
func (t *tracer) sample(r *run) error {
	s := r.newSender(0)
	s.bodies = r.bodies
	defer r.merge(s)
	at := r.simNow
	r.simNow = at.Add(time.Minute)

	// One twin per layer entry, so each sees every line exactly once. They
	// know the catalog (one arrival per shape), and before the sample they and
	// the daemon are sent the same 65,536 lines, a cache-full, so that the
	// daemon's fingerprint cache and the twins' hold the same entries.
	sv, fo := newTwin(), qb5000.New(daemonConfig())
	popts := preprocess.Options{Seed: daemonConfig().Seed, Shards: daemonShards, FingerprintCacheSize: daemonFPCache}
	split, classify := preprocess.New(popts), preprocess.New(popts)
	feed := func(buf []byte) error {
		sv.observe(buf)
		obs, err := readBody(buf)
		if err != nil {
			return err
		}
		fo.ObserveMany(obs)
		split.ProcessMany(toPreprocess(obs))
		classify.ProcessMany(toPreprocess(obs))
		return nil
	}
	if err := feed(r.cat.oneOfEach(at)); err != nil {
		return err
	}
	next := 0
	send := func() ([]byte, ack, error) {
		b := r.bodies[next%len(r.bodies)]
		next++
		s.observe(b, at, nowNS())
		if s.err != nil {
			return nil, ack{}, s.err
		}
		return b.buf, s.acks[len(s.acks)-1], nil
	}
	var untraced, traced []float64
	// The cache-full also pays for the new connection and for whatever the
	// daemon is still finishing from the timed phase; it is not sampled.
	for i := -warmBodies; i < sampleRequests; i++ {
		buf, a, err := send()
		if err != nil {
			return err
		}
		if err := feed(buf); err != nil {
			return err
		}
		if i >= 0 {
			untraced = append(untraced, a.latMS())
		}
	}
	// The traced requests go out back to back like the untraced ones, each
	// keeping a copy of what it sent; the replay through the layers follows
	// once the daemon is idle again.
	sent := make([][]byte, sampleRequests)
	roots := make([]int, sampleRequests)
	for i := range sent {
		buf, a, err := send()
		if err != nil {
			return err
		}
		sent[i] = append([]byte(nil), buf...)
		roots[i] = len(t.spans) + 1
		t.spans = append(t.spans, span{
			ID: roots[i], Request: t.request + 1 + i, Name: "qb5000d POST /observe",
			StartNS: a.dueNS, EndNS: a.doneNS,
		})
		traced = append(traced, a.latMS())
	}
	var hitAllocs, missAllocs, parseAllocs, hits, misses uint64
	for i, buf := range sent {
		t.request++
		root := roots[i]
		var err error
		serve := t.time("server.ServeHTTP(/observe)", root, func() { sv.observe(buf) })
		var obs []qb5000.Observation
		t.time("tracefile.Read", serve, func() { obs, err = readBody(buf) })
		if err != nil {
			return err
		}
		t.counts["tracefile.lines"] += float64(len(obs))
		t.counts["tracefile.bytes"] += float64(len(buf))
		many := t.time("qb5000.ObserveMany", serve, func() { fo.ObserveMany(obs) })

		// Split the request into the lines the cache knows and the lines it
		// does not, as a preprocessor fed one line at a time sees them.
		var hit, miss []preprocess.Observation
		for _, o := range toPreprocess(obs) {
			before := classify.Stats().CacheHits
			if _, err := classify.ProcessBatch(o.SQL, o.At, o.Count); err != nil {
				return err
			}
			if classify.Stats().CacheHits > before {
				hit = append(hit, o)
			} else {
				miss = append(miss, o)
			}
		}
		if len(hit) > 0 {
			m0 := mallocs()
			t.time("preprocess.ProcessMany(hit)", many, func() { split.ProcessMany(hit) })
			hitAllocs += mallocs() - m0
			hits += uint64(len(hit))
		}
		if len(miss) > 0 {
			m0 := mallocs()
			pm := t.time("preprocess.ProcessMany(miss)", many, func() { split.ProcessMany(miss) })
			missAllocs += mallocs() - m0
			misses += uint64(len(miss))
			tz := t.time("preprocess.Templatize", pm, func() {
				for _, o := range miss {
					if _, err = preprocess.Templatize(o.SQL); err != nil {
						return
					}
				}
			})
			if err != nil {
				return err
			}
			m0 = mallocs()
			t.time("sqlparse.Parse", tz, func() {
				for _, o := range miss {
					if _, err = sqlparse.Parse(o.SQL); err != nil {
						return
					}
				}
			})
			parseAllocs += mallocs() - m0
			if err != nil {
				return err
			}
		}
	}
	t.counts["trace.overhead_ratio"] = median(traced) / median(untraced)
	t.counts["sample.untraced_us_per_line"] = median(untraced) * 1e3 / linesPerRequest
	t.counts["sample.hits"], t.counts["sample.misses"] = float64(hits), float64(misses)
	t.counts["preprocess.hit_allocs"] = ratio(float64(hitAllocs), float64(hits))
	t.counts["preprocess.miss_allocs"] = ratio(float64(missAllocs), float64(misses))
	t.counts["sqlparse.parse_allocs"] = ratio(float64(parseAllocs), float64(misses))
	if err := t.shed(r.bodies[0].buf); err != nil {
		return err
	}
	return t.gate()
}

// latenessP99 is how late the open-loop generator ran: the 99th percentile of
// send time minus due time, or the maximum when the phase was too short for
// a p99 (the maximum can only overstate it). Closed loops have no schedule to
// be late for and report 0.
func latenessP99(lateMS []float64) float64 {
	if len(lateMS) == 0 {
		return 0
	}
	if v, err := percentile(lateMS, 0.99); err == nil {
		return v
	}
	worst := lateMS[0]
	for _, v := range lateMS {
		worst = max(worst, v)
	}
	return worst
}

func ratio(a, b float64) float64 {
	//lint:ignore floateq an exact zero is the "no samples" count, never a computed value
	if b == 0 {
		return 0
	}
	return a / b
}

// readBody parses a request body the way the server does.
func readBody(b []byte) ([]qb5000.Observation, error) {
	obs := make([]qb5000.Observation, 0, linesPerRequest)
	err := tracefile.Read(bytes.NewReader(b), func(e tracefile.Entry) error {
		obs = append(obs, qb5000.Observation{SQL: e.SQL, At: e.At, Count: e.Count})
		return nil
	})
	return obs, err
}

func toPreprocess(obs []qb5000.Observation) []preprocess.Observation {
	out := make([]preprocess.Observation, len(obs))
	for i, o := range obs {
		out[i] = preprocess.Observation{SQL: o.SQL, At: o.At, Count: o.Count}
	}
	return out
}

// byName sums the spans' self times and whole durations, and counts them,
// per span name.
func (t *tracer) byName() (selfNS, wholeNS map[string]float64, calls map[string]int) {
	self := selfTimes(t.spans)
	selfNS, wholeNS, calls = make(map[string]float64), make(map[string]float64), make(map[string]int)
	for _, s := range t.spans {
		selfNS[s.Name] += float64(self[s.ID])
		wholeNS[s.Name] += float64(s.EndNS - s.StartNS)
		calls[s.Name]++
	}
	return selfNS, wholeNS, calls
}

// layerMetrics turns the spans and counts into the per-layer metrics.
func (t *tracer) layerMetrics(r *run) {
	selfNS, wholeNS, calls := t.byName()
	lines := t.counts["tracefile.lines"]
	hits, misses := t.counts["sample.hits"], t.counts["sample.misses"]
	perLine := func(name, span string, per float64) {
		r.add(name, "us", ratio(selfNS[span]/1e3, per), int(per))
	}
	perCall := func(name, unit, span string, scale float64) {
		r.add(name, unit, ratio(selfNS[span]/scale, float64(calls[span])), calls[span])
	}
	count := func(name, unit string) { r.add(name, unit, t.counts[name], 1) }

	perLine("qb5000d.transport_us", "qb5000d POST /observe", lines)
	r.add("qb5000d.startup_s", "s", median(r.startupS), len(r.startupS))
	r.add("qb5000d.shutdown_s", "s", median(r.shutdownS), len(r.shutdownS))
	r.add("qb5000d.cpu_s", "s", r.daemonCPU, 1)
	r.add("qb5000d.maintain_cpu_s", "s", r.maintainCPU, len(r.maintainS))
	perLine("server.observe_self_us", "server.ServeHTTP(/observe)", lines)
	perCall("server.forecast_encode_ms", "ms", "server.ServeHTTP(/forecast)", 1e6)
	count("server.forecast_bytes", "B")
	r.add("server.shed_us", "us", selfNS["server.ServeHTTP(shed)"]/1e3/shedRepeat, shedRepeat)
	r.add("admission.acquire_release_ns", "ns", selfNS["admission.TryAcquire+Release"]/gateRepeat, gateRepeat)
	r.add("admission.observe_admitted", "count", float64(r.final.Admission.Observe.Admitted), 1)
	r.add("admission.observe_shed", "count", float64(r.final.Admission.Observe.Shed), 1)
	r.add("admission.forecast_shed", "count", float64(r.final.Admission.Forecast.Shed), 1)
	perLine("tracefile.read_us", "tracefile.Read", lines)
	count("tracefile.lines", "count")
	count("tracefile.bytes", "B")
	perLine("qb5000.observe_many_self_us", "qb5000.ObserveMany", lines)
	perLine("sqlparse.parse_us", "sqlparse.Parse", misses)
	count("sqlparse.parse_allocs", "allocs")
	perLine("preprocess.templatize_self_us", "preprocess.Templatize", misses)
	perLine("preprocess.fold_hit_us", "preprocess.ProcessMany(hit)", hits)
	perLine("preprocess.fold_miss_us", "preprocess.ProcessMany(miss)", misses)
	count("preprocess.hit_allocs", "allocs")
	count("preprocess.miss_allocs", "allocs")
	r.add("preprocess.cache_hit_ratio", "1", r.cacheHitRatio, 1)
	r.add("preprocess.cache_evictions", "count", float64(r.final.CacheEvictions), 1)
	r.add("preprocess.templates", "count", float64(r.final.Templates), 1)
	count("preprocess.history_mb", "MB")
	perCall("preprocess.maintain_sweep_s", "s", "preprocess.Maintain", 1e9)
	perCall("preprocess.templates_clone_s", "s", "preprocess.Templates", 1e9)
	perCall("preprocess.clone_by_id_ms", "ms", "preprocess.CloneByID", 1e6)
	perCall("preprocess.snapshot_encode_s", "s", "preprocess.Snapshot", 1e9)
	perCall("preprocess.snapshot_decode_s", "s", "preprocess.RestoreSnapshotCache", 1e9)
	perCall("cluster.update_s", "s", "cluster.Update", 1e9)
	count("cluster.clusters", "count")
	perCall("forecast.fit_s", "s", "forecast.Fit", 1e9)
	perCall("forecast.predict_ms", "ms", "forecast.Predict", 1e6)
	r.add("core.refresh_s", "s", ratio(wholeNS["core.Refresh"]/1e9, float64(calls["core.Refresh"])), calls["core.Refresh"])
	perCall("core.retrain_self_s", "s", "core.Refresh", 1e9)
	r.add("core.forecast_ms", "ms", ratio(wholeNS["core.Forecast"]/1e6, float64(calls["core.Forecast"])), calls["core.Forecast"])
	perCall("core.forecast_self_ms", "ms", "core.Forecast", 1e6)
	count("core.tracked_members", "count")
	perCall("core.envelope_s", "s", "qb5000.Save", 1e9)
	perCall("fsx.write_atomic_s", "s", "qb5000.SaveFile", 1e9)
	r.add("gen.cpu_s", "s", r.genCPU, 1)
	r.add("gen.build_s", "s", r.buildS, 1)
	r.add("gen.late_p99_ms", "ms", latenessP99(r.lateMS), len(r.lateMS))
	r.add("gen.sent_lines", "count", float64(r.sentLines), 1)
	count("trace.overhead_ratio", "1")
}

// explained compares the observe path's per-layer self times with the
// untraced request time they are meant to account for. Both sides are medians
// over the sampled requests, so that a stall in one of them (a collection in
// the twin, a burst on the host) does not decide the verdict.
func (t *tracer) explained() string {
	observePath := map[string]bool{
		"qb5000d POST /observe": true, "server.ServeHTTP(/observe)": true, "tracefile.Read": true, "qb5000.ObserveMany": true,
		"preprocess.ProcessMany(hit)": true, "preprocess.ProcessMany(miss)": true, "preprocess.Templatize": true, "sqlparse.Parse": true,
	}
	self := selfTimes(t.spans)
	perRequest := make([]float64, t.request+1)
	sampled := make([]bool, t.request+1)
	for _, s := range t.spans {
		if observePath[s.Name] {
			perRequest[s.Request] += float64(self[s.ID])
			sampled[s.Request] = true
		}
	}
	var sums []float64
	for req, ok := range sampled {
		if ok {
			sums = append(sums, perRequest[req])
		}
	}
	layers := median(sums) / 1e3 / linesPerRequest
	whole := t.counts["sample.untraced_us_per_line"]
	verdict := "the trace explains the untraced request time"
	if !(math.Abs(layers-whole) <= 0.2*whole) {
		verdict = "the trace does NOT explain the untraced request time (more than 20% apart)"
	}
	return fmt.Sprintf("observe-path self times sum to %.3f us/line, untraced %.3f us/line (medians over the sampled requests): %s", layers, whole, verdict)
}

// write stores the spans under bench/out.
func (t *tracer) write(workload string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	return path, os.WriteFile(path, raw, 0o644)
}
