package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"sync"
	"syscall"
	"time"

	"qb5000"
	"qb5000/internal/server"
)

// workload is one traffic mix. Every workload runs the daemon's whole life
// (see README.md for the phase diagram); they differ in catalog size and in
// what the timed observe stream looks like.
type workload struct {
	name, why string
	// templates is the catalog size.
	templates int
	traffic   traffic
	// hitLo..hitHi is the band the fingerprint-cache hit ratio of the timed
	// stream must land in; outside it the workload is not exercising what it
	// claims to and the run is not correct.
	hitLo, hitHi float64
	// mixed replaces the ingest phase with one open-loop phase of observes,
	// forecast polls and maintains side by side, which also times the
	// maintains and forecasts.
	mixed bool
	// ungated keeps the workload out of BENCHMARK.json: it runs and is checked
	// like the others, but its timings are not steady enough on the reference
	// box to bound (README.md, "How steady it is").
	ungated bool
}

var workloads = []workload{
	{
		name:      "ingest-repeat",
		why:       "production shape: 16,384 raw strings cycle through a 65,536-entry fingerprint cache, so parsing is skipped and framing plus fold do the work",
		templates: 300,
		traffic:   traffic{pool: 16384, bodies: 64},
		hitLo:     0.99, hitHi: 1,
	},
	{
		name:      "ingest-fresh",
		why:       "every line carries never-seen literals: 0% cache hits, so sqlparse, Templatize and miss-path allocations dominate and framing is a small share",
		templates: 300,
		traffic:   traffic{pool: 16384, bodies: 64, freshShare: 1},
		hitLo:     0, hitHi: 0.01,
	},
	{
		name:      "catalog-wide",
		why:       "1,000 templates and Zipf picks from 262,144 strings (4x the cache): cache thrash plus the only state large enough for clone, cluster, forecast and save/load to matter",
		templates: 1000,
		traffic:   traffic{pool: 262144, bodies: 1024, zipf: 0.7},
		hitLo:     0.2, hitHi: 0.8,
	},
	{
		name:      "serve-mixed",
		why:       "open loop at a fixed rate: observes, forecast polls and maintains side by side, so stripe-lock and CPU contention between reads, writes and retrains shows as tail latency",
		templates: 300,
		traffic:   traffic{pool: 16384, bodies: 64, freshShare: 0.2},
		hitLo:     0.7, hitHi: 0.85,
		mixed: true, ungated: true,
	},
}

// Fixed work of the sequential phases. The issue sized these for a six-minute
// pass; the benchmark contract caps a run near 45 s, so repetitions were cut
// first and the timed window (the -seconds flag) last, equally for all
// workloads. README.md records the sizes.
const (
	primeDays        = 8
	scoredHours      = 24
	hourStep         = 15 * time.Minute
	maintainEvery    = 6
	forecastsPerHour = 3
	restarts         = 5
	warmupSeconds    = 2
	senders          = 2
)

// Open-loop rates of the mixed phase.
const (
	mixedObservePerSecond  = 120
	mixedForecastPerSecond = 6
	// mixedHourWall is the wall time of one simulated hour in the mixed
	// phase: a maintain falls due at each.
	mixedHourWall = 4 * time.Second
	// maxLateMS fails a mixed run whose generator fell this far behind its
	// schedule at the end: the backlog is growing.
	maxLateMS = 1000
)

const forecastPath = "/forecast?horizon=1h"

// run is the state of one workload run.
type run struct {
	w       workload
	seed    int64
	seconds int
	trace   *tracer // nil on an untraced run
	place   placement

	cat    *catalog
	hist   *history
	bodies []*body
	d      *daemon

	attempted, failed int64
	// problems are the correctness failures; any makes the run not correct.
	problems []string
	metrics  []metric

	// queries is how many arrivals were sent (count-weighted), ingested what
	// the daemon acknowledged, perShape the arrivals of each shape.
	queries, ingested int64
	perShape          []int64
	// simNow is the next unused simulated instant.
	simNow time.Time
	// pending is the newest forecast not yet scored and the clock hour it
	// predicts.
	pending     []qb5000.ClusterForecast
	pendingHour int
	sqErr       float64
	sqErrN      int

	maintainS, forecastMS []float64
	startupS, shutdownS   []float64
	lateMS                []float64
	cacheHitRatio         float64
	// maintainCPU is the daemon CPU spent in the sequential maintains,
	// daemonCPU that of every daemon process of the run, genCPU the
	// benchmark's own during the timed phase.
	maintainCPU, daemonCPU, genCPU float64
	buildS                         float64
	sentLines                      int64
	// phaseS is each phase's wall time, printed so a slow run can be placed.
	phaseS []float64
	// final is the daemon's /stats at the end of the run.
	final server.StatsResponse
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// add reports a metric. A value that is not a number (a median of no samples,
// a ratio of nothings) is a failed measurement, not a metric.
func (r *run) add(name, unit string, value float64, n int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.problem("%s could not be measured (%v from %d samples)", name, value, n)
		return
	}
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: value, N: n})
}

// request counts one control-connection request and its failure.
func (r *run) request(err error) error {
	r.attempted++
	if err != nil {
		r.failed++
	}
	return err
}

// sendHistory streams count-aggregated history bodies on the control
// connection and tallies what was sent.
func (r *run) sendHistory(from, to time.Time, step time.Duration) error {
	before := r.hist.total
	for _, b := range r.hist.bodies(from, to, step) {
		rep, err := r.d.ctl.observe(b)
		if r.request(err) != nil {
			return err
		}
		r.ingested += rep.Ingested
		if r.trace != nil && r.trace.following {
			r.trace.twin.observe(b)
		}
	}
	r.queries += r.hist.total - before
	r.simNow = to
	return nil
}

// maintain posts /maintain and returns its wall time.
func (r *run) maintain() (float64, error) {
	start := nowNS()
	code, out, err := r.d.ctl.do(http.MethodPost, "/maintain", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/maintain: %d %s", code, out)
	}
	took := secondsSince(start)
	if r.trace != nil && err == nil {
		err = r.trace.maintainTwin()
	}
	return took, r.request(err)
}

// forecast fetches the one-hour forecast and returns it with its latency.
func (r *run) forecast() ([]qb5000.ClusterForecast, float64, error) {
	var fc []qb5000.ClusterForecast
	start := nowNS()
	code, raw, err := r.d.ctl.do(http.MethodGet, forecastPath, nil)
	ms := secondsSince(start) * 1e3 // the round trip, not the decoding below
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/forecast: %d %s", code, raw)
	}
	if err == nil {
		err = json.Unmarshal(raw, &fc)
	}
	if err == nil {
		err = r.checkForecast(fc)
	}
	return fc, ms, r.request(err)
}

// checkForecast is the part of the correctness gate that needs no oracle:
// finite non-negative rates over clusters of catalog templates.
func (r *run) checkForecast(fc []qb5000.ClusterForecast) error {
	if len(fc) == 0 {
		return errors.New("/forecast: no clusters")
	}
	for _, c := range fc {
		if math.IsNaN(c.TotalRate) || math.IsInf(c.TotalRate, 0) || c.TotalRate < 0 || len(c.Templates) == 0 {
			return fmt.Errorf("/forecast: cluster %d: rate %v over %d templates", c.ClusterID, c.TotalRate, len(c.Templates))
		}
		for _, t := range c.Templates {
			if _, ok := r.cat.byTemplate[t]; !ok {
				return fmt.Errorf("/forecast: cluster %d names unknown template %q", c.ClusterID, t)
			}
		}
	}
	return nil
}

// score folds the pending forecast's squared log error against the volume
// actually sent in the hour it predicted (the paper's §7 metric).
func (r *run) score(volume []int64) {
	for _, c := range r.pending {
		var realised float64
		for _, t := range c.Templates {
			realised += float64(volume[r.cat.byTemplate[t]])
		}
		realised /= float64(len(c.Templates))
		d := math.Log1p(c.PerTemplateRate) - math.Log1p(realised)
		r.sqErr += d * d
		r.sqErrN++
	}
	r.pending = nil
}

// setup is P0: exec an empty daemon, prime the history plus the first minute
// of the next hour (so the forecast is for the hour about to be streamed),
// maintain, and poll until /forecast answers.
func (r *run) setup() error {
	start := nowNS()
	up, err := r.d.start(false)
	if err != nil {
		return err
	}
	r.startupS = append(r.startupS, up)
	end := historyStart.Add(primeDays * 24 * time.Hour)
	if err := r.sendHistory(historyStart, end, time.Hour); err != nil {
		return err
	}
	if err := r.sendHistory(end, end.Add(time.Minute), time.Minute); err != nil {
		return err
	}
	if err := r.timedMaintain(); err != nil {
		return err
	}
	fc, _, err := r.forecast()
	if err != nil {
		return err
	}
	r.add("setup_s", "s", secondsSince(start), 1)
	r.pending, r.pendingHour = fc, hourIndex(end)
	return nil
}

// streamHour streams the rest of the current simulated hour at hourStep and
// the first minute of the next (so the daemon's clock stands in the hour the
// next forecast is for), then scores the pending forecast, which was for
// exactly the hour now complete, against what was sent.
func (r *run) streamHour() error {
	next := r.simNow.Truncate(time.Hour).Add(time.Hour)
	if err := r.sendHistory(r.simNow, next, hourStep); err != nil {
		return err
	}
	if err := r.sendHistory(next, next.Add(time.Minute), time.Minute); err != nil {
		return err
	}
	r.score(r.hist.volume[r.pendingHour])
	return nil
}

// hours is P1: stream an hour, forecast the next, and retrain every
// maintainEvery hours. Every hour's last forecast is scored against the volume
// streamed in the hour that follows. Forecasts between retrains come from the
// last trained model over the newest history, as in the paper's deployment.
// serve-mixed takes its maintain and forecast timings from the mixed phase, so
// here it only scores.
func (r *run) hours() error {
	for h := 1; h <= scoredHours; h++ {
		if err := r.streamHour(); err != nil {
			return err
		}
		polls := forecastsPerHour
		if r.w.mixed {
			polls = 1
		} else if h%maintainEvery == 0 {
			if err := r.timedMaintain(); err != nil {
				return err
			}
		}
		for i := 0; i < polls; i++ {
			fc, ms, err := r.forecast()
			if err != nil {
				return err
			}
			if !r.w.mixed {
				r.forecastMS = append(r.forecastMS, ms)
			}
			r.pending, r.pendingHour = fc, hourIndex(r.simNow)
		}
	}
	return nil
}

// timedMaintain is a sequential maintain whose wall and CPU time count.
func (r *run) timedMaintain() error {
	cpu0, err := r.d.cpuSeconds()
	if err != nil {
		return err
	}
	took, err := r.maintain()
	if err != nil {
		return err
	}
	cpu1, err := r.d.cpuSeconds()
	if err != nil {
		return err
	}
	r.maintainS = append(r.maintainS, took)
	r.maintainCPU += cpu1 - cpu0
	return nil
}

func (r *run) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	err := r.request(r.d.ctl.getJSON(http.MethodGet, "/stats", &st))
	return st, err
}

// checkStats is the counter part of the correctness gate.
func (r *run) checkStats(when string) (server.StatsResponse, error) {
	st, err := r.stats()
	if err != nil {
		return st, err
	}
	if st.TotalQueries != r.queries {
		r.problem("%s: /stats TotalQueries = %d, sent %d", when, st.TotalQueries, r.queries)
	}
	if st.Templates != len(r.cat.shapes) {
		r.problem("%s: %d templates, catalog has %d shapes", when, st.Templates, len(r.cat.shapes))
	}
	if st.ParseErrors != 0 {
		r.problem("%s: %d parse errors", when, st.ParseErrors)
	}
	if shed := st.Admission.Observe.Shed + st.Admission.Forecast.Shed; shed != 0 {
		r.problem("%s: %d requests shed", when, shed)
	}
	return st, nil
}

// noteDaemonCPU adds the current daemon process's CPU time to the run's
// total; call it once per process, just before the process ends.
func (r *run) noteDaemonCPU() error {
	cpu, err := r.d.cpuSeconds()
	r.daemonCPU += cpu
	return err
}

// restart is P2: SIGTERM, wait for exit (shutdown + snapshot), exec with
// -load, wait until /stats answers with the same catalog. A reloaded daemon
// has neither models nor a clock (/maintain answers 409 until it has observed
// something), so the phase ends with one more minute of history and an
// untimed maintain.
func (r *run) restart() error {
	var restartS []float64
	for i := 0; i < restarts; i++ {
		if err := r.noteDaemonCPU(); err != nil {
			return err
		}
		start := nowNS()
		down, err := r.d.stop()
		if r.request(err) != nil {
			return fmt.Errorf("daemon exit: %w", err)
		}
		up, err := r.d.start(true)
		if r.request(err) != nil {
			return err
		}
		if _, err := r.checkStats("after restart"); err != nil {
			return err
		}
		restartS = append(restartS, secondsSince(start))
		r.shutdownS = append(r.shutdownS, down)
		r.startupS = append(r.startupS, up)
	}
	fi, err := os.Stat(r.d.snapshotPath())
	if err != nil {
		return err
	}
	r.add("restart_s", "s", median(restartS), len(restartS))
	r.add("snapshot_mb", "MB", float64(fi.Size())/(1<<20), 1)
	if err := r.sendHistory(r.simNow, r.simNow.Add(time.Minute), time.Minute); err != nil {
		return err
	}
	_, err = r.maintain()
	return err
}

// sender is one connection of a timed phase and everything it tallies; the
// run merges the tallies once the sender has finished.
type sender struct {
	conn    *conn
	bodies  []*body
	nextLit uint64

	acks              []ack
	attempted, failed int64
	ingested          int64
	perShape          []int64
	err               error
}

// observe stamps and posts one body.
func (s *sender) observe(b *body, at time.Time, dueNS int64) {
	b.stamp(at, &s.nextLit)
	rep, err := s.conn.observe(b.buf)
	done := nowNS()
	s.attempted++
	if err != nil {
		s.failed++
		if s.err == nil {
			s.err = err
		}
		return
	}
	s.ingested += rep.Ingested
	for _, sh := range b.shapes {
		s.perShape[sh]++
	}
	s.acks = append(s.acks, ack{dueNS: dueNS, doneNS: done, lines: linesPerRequest})
}

func (r *run) newSender(k int) *sender {
	s := &sender{
		conn:     newConn(r.d.addr),
		nextLit:  litFresh + uint64(k)*1e11,
		perShape: make([]int64, len(r.cat.shapes)),
	}
	for i := k; i < len(r.bodies); i += senders {
		s.bodies = append(s.bodies, r.bodies[i])
	}
	return s
}

// merge folds a finished sender's tallies into the run.
func (r *run) merge(s *sender) {
	s.conn.closeIdle()
	r.attempted += s.attempted
	r.failed += s.failed
	r.ingested += s.ingested
	for i, n := range s.perShape {
		r.queries += n
		r.perShape[i] += n
	}
	if s.err != nil {
		r.problem("observe failed: %v", s.err)
	}
}

// window is the measurement of one timed phase between its warm-up and end.
type window struct {
	startNS, endNS int64
	cpu            float64
	before, after  server.StatsResponse
}

// measure sleeps through the warm-up and the timed window of a phase that
// began at startNS, reading the daemon's CPU time and counters at the
// window's edges.
func (r *run) measure(startNS int64) (window, error) {
	w := window{startNS: startNS + int64(warmupSeconds)*1e9}
	w.endNS = w.startNS + int64(r.seconds)*1e9
	sleepUntilNS(w.startNS)
	gen0, err := selfCPUSeconds()
	if err != nil {
		return w, err
	}
	cpu0, err := r.d.cpuSeconds()
	if err != nil {
		return w, err
	}
	if w.before, err = r.stats(); err != nil {
		return w, err
	}
	sleepUntilNS(w.endNS)
	cpu1, err := r.d.cpuSeconds()
	if err != nil {
		return w, err
	}
	if w.after, err = r.stats(); err != nil {
		return w, err
	}
	gen1, err := selfCPUSeconds()
	if err != nil {
		return w, err
	}
	w.cpu, r.genCPU = cpu1-cpu0, gen1-gen0
	return w, nil
}

// observeMetrics reports the observe_* metrics of a timed window.
func (r *run) observeMetrics(w window, acks []ack) {
	var lat []float64
	var lines int64
	for _, a := range acks {
		if a.in(w) {
			lat = append(lat, a.latMS())
			lines += a.lines
		}
	}
	if lines == 0 {
		r.problem("no observe request was due inside the timed window")
		return
	}
	r.sentLines = lines
	rates := windowRates(acks, w.startNS, r.seconds)
	r.add("observe_qps", "lines/s", median(rates), len(rates))
	r.add("observe_cpu_us", "us/line", w.cpu*1e6/float64(lines), int(lines))
	r.add("observe_p50_ms", "ms", median(lat), len(lat))
	r.addTail("observe_p99_ms", lat, 0.99)
	hits := w.after.CacheHits - w.before.CacheHits
	misses := w.after.CacheMisses - w.before.CacheMisses
	r.cacheHitRatio = float64(hits) / float64(hits+misses)
	if r.cacheHitRatio < r.w.hitLo || r.cacheHitRatio > r.w.hitHi {
		r.problem("cache hit ratio %.4f outside %v..%v", r.cacheHitRatio, r.w.hitLo, r.w.hitHi)
	}
}

// addTail reports a tail percentile, or fails the run when the phase did not
// collect enough samples to support it.
func (r *run) addTail(name string, xs []float64, p float64) {
	v, err := percentile(xs, p)
	if err != nil {
		r.problem("%s: %v (n=%d)", name, err, len(xs))
		return
	}
	r.add(name, "ms", v, len(xs))
}

// ingest is P3: a closed loop of `senders` connections, each posting its next
// body as soon as the previous one is acknowledged. The simulated clock
// follows wall time (1 wall s = 1 simulated min), not request count, so a
// faster build does not grow the history it measures.
func (r *run) ingest() error {
	ss := make([]*sender, senders)
	for k := range ss {
		ss[k] = r.newSender(k)
	}
	simStart := r.simNow
	startNS := nowNS()
	stopNS := startNS + int64(warmupSeconds+r.seconds)*1e9
	var wg sync.WaitGroup
	for _, s := range ss {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for i := 0; s.err == nil; i++ {
				now := nowNS()
				if now >= stopNS {
					return
				}
				at := simStart.Add(time.Duration(now-startNS) * 60).Truncate(time.Second)
				s.observe(s.bodies[i%len(s.bodies)], at, now)
			}
		}(s)
	}
	w, err := r.measure(startNS)
	wg.Wait()
	r.simNow = simStart.Add(time.Duration(stopNS-startNS)*60 + time.Minute)
	var acks []ack
	for _, s := range ss {
		r.merge(s)
		acks = append(acks, s.acks...)
	}
	if err != nil {
		return err
	}
	r.observeMetrics(w, acks)
	return nil
}

// mixed is serve-mixed's open-loop phase: three connections, each on its own
// fixed schedule — A the observes, B a maintain at each simulated hour, C the
// forecast polls. Every latency is taken from the request's due time, so a
// stall is charged to every request it delays. A maintain is sent only if half
// an hour of the phase is left, so each one runs its full length under load.
func (r *run) mixed() error {
	a := r.newSender(0)
	a.bodies = r.bodies // one observe connection: it owns every body
	b, c := newConn(r.d.addr), newConn(r.d.addr)
	simStart := r.simNow
	simPerWall := int64(time.Hour / mixedHourWall)
	startNS := nowNS()
	stopNS := startNS + int64(warmupSeconds+r.seconds)*1e9

	// Each connection's tallies are written by its own goroutine and read once
	// all three have finished.
	var polls, maintains []ack
	var lateA, lateC []float64
	var lastPoll []byte
	var maintainErr, pollErr error

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // connection A
		defer wg.Done()
		gap := int64(time.Second) / mixedObservePerSecond
		for i := int64(0); a.err == nil; i++ {
			due := startNS + i*gap
			if due >= stopNS {
				return
			}
			sleepUntilNS(due)
			lateA = append(lateA, float64(nowNS()-due)/1e6)
			at := simStart.Add(time.Duration((due - startNS) * simPerWall)).Truncate(time.Second)
			a.observe(a.bodies[i%int64(len(a.bodies))], at, due)
		}
	}()
	go func() { // connection B
		defer wg.Done()
		for k := int64(1); ; k++ {
			due := startNS + k*int64(mixedHourWall)
			if due+int64(mixedHourWall)/2 > stopNS {
				return
			}
			sleepUntilNS(due)
			code, out, err := b.do(http.MethodPost, "/maintain", nil)
			done := nowNS()
			if err != nil || code != http.StatusOK {
				maintainErr = fmt.Errorf("/maintain: %d %s %v", code, out, err)
				return
			}
			maintains = append(maintains, ack{dueNS: due, doneNS: done})
		}
	}()
	go func() { // connection C
		defer wg.Done()
		gap := int64(time.Second) / mixedForecastPerSecond
		for k := int64(0); ; k++ {
			due := startNS + gap/2 + k*gap
			if due >= stopNS {
				return
			}
			sleepUntilNS(due)
			lateC = append(lateC, float64(nowNS()-due)/1e6)
			code, raw, err := c.do(http.MethodGet, forecastPath, nil)
			done := nowNS()
			if err != nil || code != http.StatusOK {
				pollErr = fmt.Errorf("/forecast: %d %v", code, err)
				return
			}
			polls = append(polls, ack{dueNS: due, doneNS: done})
			lastPoll = raw
		}
	}()
	w, err := r.measure(startNS)
	wg.Wait()
	b.closeIdle()
	c.closeIdle()
	r.simNow = simStart.Add(time.Duration((stopNS-startNS)*simPerWall) + time.Minute)
	r.merge(a)
	r.attempted += int64(len(maintains) + len(polls))
	for _, e := range []error{maintainErr, pollErr} {
		if e != nil {
			r.attempted++
			r.failed++
			r.problem("%v", e)
		}
	}
	if err != nil {
		return err
	}
	r.observeMetrics(w, a.acks)
	for _, late := range [][]float64{lateA, lateC} {
		if n := len(late); n > 0 && late[n-1] > maxLateMS {
			r.problem("generator ended %.0f ms behind schedule: the backlog is growing", late[n-1])
		}
		r.lateMS = append(r.lateMS, late...)
	}
	r.maintainS = nil // the sequential maintains are not this workload's figure
	for _, m := range maintains {
		if m.in(w) {
			r.maintainS = append(r.maintainS, m.latMS()/1e3)
		}
	}
	for _, p := range polls {
		if p.in(w) {
			r.forecastMS = append(r.forecastMS, p.latMS())
		}
	}
	var fc []qb5000.ClusterForecast
	if err := json.Unmarshal(lastPoll, &fc); err != nil {
		return fmt.Errorf("last /forecast reply: %w", err)
	}
	return r.checkForecast(fc)
}

// checkCatalog compares every template's arrival count in /templates with the
// generator's own tally of what it sent: an oracle that shares no code with
// the daemon.
func (r *run) checkCatalog() error {
	var ts []qb5000.TemplateInfo
	if err := r.request(r.d.ctl.getJSON(http.MethodGet, "/templates", &ts)); err != nil {
		return err
	}
	// perShape tallies the timed phases; the history tallies itself by hour.
	sent := append([]int64(nil), r.perShape...)
	for _, vol := range r.hist.volume {
		for sh, n := range vol {
			sent[sh] += n
		}
	}
	if len(ts) != len(r.cat.shapes) {
		r.problem("/templates lists %d templates, catalog has %d shapes", len(ts), len(r.cat.shapes))
	}
	for _, t := range ts {
		sh, ok := r.cat.byTemplate[t.SQL]
		if !ok {
			r.problem("/templates lists unknown template %q", t.SQL)
		} else if t.Count != sent[sh] {
			r.problem("template %q counts %d arrivals, generator sent %d", t.SQL, t.Count, sent[sh])
		}
	}
	return nil
}

// finish closes the run: the final counter and catalog checks, memory, and
// the metrics that summarise samples collected along the way.
func (r *run) finish() (err error) {
	if r.final, err = r.checkStats("at end"); err != nil {
		return err
	}
	if err := r.noteDaemonCPU(); err != nil {
		return err
	}
	if r.ingested != r.queries {
		r.problem("replies acknowledged %d arrivals, sent %d", r.ingested, r.queries)
	}
	if err := r.checkCatalog(); err != nil {
		return err
	}
	rss, err := r.d.peakRSSMB()
	if err != nil {
		return err
	}
	r.add("rss_mb", "MB", rss, 1)
	// The mean, not the median: a GC cycle lengthens about two forecasts in
	// five, and the median of that two-humped distribution sits on the gap.
	r.add("forecast_mean_ms", "ms", mean(r.forecastMS), len(r.forecastMS))
	r.addTail("forecast_p80_ms", r.forecastMS, 0.80)
	r.add("maintain_s", "s", median(r.maintainS), len(r.maintainS))
	if r.sqErrN == 0 {
		r.problem("no forecast was scored")
	} else {
		r.add("forecast_logmse", "1", r.sqErr/float64(r.sqErrN), r.sqErrN)
	}
	return nil
}

// execute runs the workload's phases in order against a fresh daemon.
func (r *run) execute(ctx context.Context, bin string) (err error) {
	if r.cat, err = newCatalog(r.w.templates); err != nil {
		return err
	}
	r.hist = newHistory(r.cat, r.seed)
	r.bodies = r.w.traffic.render(r.cat, r.seed)
	r.perShape = make([]int64, len(r.cat.shapes))
	if r.d, err = newDaemon(ctx, bin, r.place); err != nil {
		return err
	}
	defer func() { err = errors.Join(err, r.d.cleanup()) }()
	timed := r.ingest
	if r.w.mixed {
		timed = r.mixed
	}
	phases := []func() error{r.setup, r.hours}
	if r.trace != nil {
		phases = append(phases, func() error { return r.trace.sequential(r) })
	}
	phases = append(phases, r.restart, timed)
	if r.trace != nil {
		phases = append(phases, func() error { return r.trace.sample(r) })
	}
	phases = append(phases, r.finish)
	for _, phase := range phases {
		start := nowNS()
		if err := phase(); err != nil {
			return err
		}
		r.phaseS = append(r.phaseS, secondsSince(start))
	}
	return nil
}

// selfCPUSeconds is the benchmark process's own user+system CPU time.
func selfCPUSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}
