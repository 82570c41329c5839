// Benchmarks regenerating the paper's tables and figures (one per
// artifact; see DESIGN.md for the experiment index) plus micro-benchmarks
// for the pipeline's hot paths. The experiment benchmarks run in quick mode
// so a full `go test -bench=. -benchmem` pass completes in minutes; run
// `go run ./cmd/qb5000bench -exp all` for the full-fidelity reports.
package qb5000

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"qb5000/internal/cluster"
	"qb5000/internal/core"
	"qb5000/internal/experiments"
	"qb5000/internal/forecast"
	"qb5000/internal/mat"
	"qb5000/internal/preprocess"
	"qb5000/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, experiments.Options{Quick: true, Seed: 1}, io.Discard); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkTable1Workloads(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkTable2Reduction(b *testing.B)       { benchExperiment(b, "table2") }
func BenchmarkTable3Properties(b *testing.B)      { benchExperiment(b, "table3") }
func BenchmarkTable4Overhead(b *testing.B)        { benchExperiment(b, "table4") }
func BenchmarkFig1Patterns(b *testing.B)          { benchExperiment(b, "fig1") }
func BenchmarkFig3ClusterHistory(b *testing.B)    { benchExperiment(b, "fig3") }
func BenchmarkFig5Coverage(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkFig6ClusterChange(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7Forecast(b *testing.B)          { benchExperiment(b, "fig7") }
func BenchmarkFig8ActualVsPredicted(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig9Spikes(b *testing.B)            { benchExperiment(b, "fig9") }
func BenchmarkFig10Intervals(b *testing.B)        { benchExperiment(b, "fig10") }
func BenchmarkFig11IndexSelection(b *testing.B)   { benchExperiment(b, "fig11") }
func BenchmarkFig12IndexSelection(b *testing.B)   { benchExperiment(b, "fig12") }
func BenchmarkFig13RhoCoverage(b *testing.B)      { benchExperiment(b, "fig13") }
func BenchmarkFig14RhoAccuracy(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkFig15PCA(b *testing.B)              { benchExperiment(b, "fig15") }
func BenchmarkFig16Gamma(b *testing.B)            { benchExperiment(b, "fig16") }
func BenchmarkFig17Noisy(b *testing.B)            { benchExperiment(b, "fig17") }

// --- Micro-benchmarks for the pipeline's hot paths. ---

// BenchmarkPreprocessorIngest measures end-to-end ingestion including
// history recording and reservoir sampling.
func BenchmarkPreprocessorIngest(b *testing.B) {
	p := preprocess.New(preprocess.Options{Seed: 1})
	at := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sql := fmt.Sprintf("SELECT a FROM t WHERE x = %d", i)
		if _, err := p.Process(sql, at.Add(time.Duration(i)*time.Second)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLRFit measures the closed-form model fit the controller runs on
// every retrain (Table 4: LR train time).
func BenchmarkLRFit(b *testing.B) {
	hist := benchHistory(24*21, 3)
	cfg := forecast.Config{Lag: 24, Horizon: 1, Outputs: 3, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := forecast.NewLR(cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Fit(hist); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKRPredict measures one kernel-regression prediction over a large
// retained training set (Table 4: KR test time).
func BenchmarkKRPredict(b *testing.B) {
	hist := benchHistory(24*60, 3)
	cfg := forecast.Config{Lag: 24, Horizon: 1, Outputs: 3, Seed: 1}
	m, err := forecast.NewKR(cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Fit(hist); err != nil {
		b.Fatal(err)
	}
	recent := mat.New(24, 3)
	for i := range recent.Data {
		recent.Data[i] = 2
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(recent); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRNNFitEpoch measures LSTM training cost (Table 4: RNN train
// time dominates the pipeline).
func BenchmarkRNNFitEpoch(b *testing.B) {
	hist := benchHistory(24*14, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := forecast.Config{Lag: 24, Horizon: 1, Outputs: 3, Seed: 1, Epochs: 1}
		m, err := forecast.NewRNN(cfg, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Fit(hist); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRetrain measures the controller's full maintenance pass — clustering
// plus per-horizon model training — at the given worker-pool bound. The
// Sequential/Parallel pair quantifies the tentpole speedup: with four
// horizons and an iterative model family, the parallel retrain should
// approach a linear speedup on multi-core hardware while producing
// bit-identical models (see TestForecastDeterminismAcrossParallelism).
func benchRetrain(b *testing.B, parallelism int) {
	b.Helper()
	ctl := core.New(core.Config{
		Model: "ENSEMBLE",
		Horizons: []time.Duration{
			time.Hour, 2 * time.Hour, 3 * time.Hour, 4 * time.Hour,
		},
		Seed:        1,
		Epochs:      4,
		Parallelism: parallelism,
	})
	w := workload.BusTracker(1)
	to := w.Start.Add(8 * 24 * time.Hour)
	err := w.Replay(w.Start, to, 10*time.Minute, func(ev workload.Event) error {
		return ctl.Ingest(ev.SQL, ev.At, ev.Count)
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ctl.Refresh(ctx, to); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRetrainSequential(b *testing.B) { benchRetrain(b, 1) }
func BenchmarkRetrainParallel(b *testing.B)   { benchRetrain(b, 0) }

// BenchmarkClusterUpdateSequential/Parallel isolate the clusterer's
// similarity scan and centroid update cost on a replayed catalog.
func benchClusterUpdate(b *testing.B, parallelism int) {
	b.Helper()
	pre := preprocess.New(preprocess.Options{Seed: 1})
	w := workload.BusTracker(1)
	to := w.Start.Add(7 * 24 * time.Hour)
	err := w.Replay(w.Start, to, 10*time.Minute, func(ev workload.Event) error {
		_, err := pre.ProcessBatch(ev.SQL, ev.At, ev.Count)
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clu := newBenchClusterer(parallelism)
		if _, err := clu.Update(ctx, to, pre.Templates()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterUpdateSequential(b *testing.B) { benchClusterUpdate(b, 1) }
func BenchmarkClusterUpdateParallel(b *testing.B)   { benchClusterUpdate(b, 0) }

// benchObserve drives ObserveBatch from the given number of goroutines over
// a fixed pool of distinct templates, measuring contended ingest throughput.
// The catalog is pre-warmed so the steady state — template exists, fold the
// arrival into its history — dominates, which is exactly the path a DBMS
// exercises when forwarding its query stream (§3: ingest must stay off the
// critical path). goroutines=1 is the sequential baseline.
func benchObserve(b *testing.B, goroutines int) {
	b.Helper()
	f := New(Config{Seed: 1})
	queries := make([]string, 256)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT a, b FROM t%d WHERE x = 1 AND y = 2", i)
	}
	at := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	for i, q := range queries {
		if err := f.Observe(q, at.Add(time.Duration(i)*time.Second)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	var wg sync.WaitGroup
	per := b.N / goroutines
	for g := 0; g < goroutines; g++ {
		n := per
		if g == 0 {
			n += b.N % goroutines
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				q := queries[(g*31+i)%len(queries)]
				ts := at.Add(time.Duration(i%3600) * time.Second)
				if err := f.ObserveBatch(q, ts, 1); err != nil {
					b.Error(err)
					return
				}
			}
		}(g, n)
	}
	wg.Wait()
}

// BenchmarkObserveParallel quantifies how single-observe (ObserveBatch)
// throughput scales with cores (make bench-ingest; wired into the CI
// bench-smoke job). The acceptance bar for the sharded catalog is
// goroutines=GOMAXPROCS reaching ≥3× the ops/sec of the pre-refactor
// global-lock path.
func BenchmarkObserveParallel(b *testing.B) {
	seen := make(map[int]bool)
	for _, g := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		if g < 1 || seen[g] {
			continue
		}
		seen[g] = true
		g := g
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			benchObserve(b, g)
		})
	}
}

// BenchmarkObserveCacheHit measures the fingerprint-cache fast path: the
// same raw SQL byte strings arrive over and over (the production common
// case), so every Observe after warmup skips lex/parse/templatize and folds
// straight into the catalog stripe. The acceptance bar for the cache is
// ≥10× over the full templatize path with ~0 allocs/op.
func BenchmarkObserveCacheHit(b *testing.B) {
	f := New(Config{Seed: 1, FingerprintCacheSize: 1024})
	queries := make([]string, 256)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT a, b FROM t%d WHERE x = 1 AND y = 2", i)
	}
	at := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	for i, q := range queries {
		if err := f.Observe(q, at.Add(time.Duration(i)*time.Second)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts := at.Add(time.Duration(i%3600) * time.Second)
		if err := f.ObserveBatch(queries[i%len(queries)], ts, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := f.Stats(); st.CacheHits < int64(b.N) {
		b.Fatalf("expected ≥%d cache hits, got %d", b.N, st.CacheHits)
	}
}

// BenchmarkObserveCacheMiss measures the cache-enabled slow path: distinct
// raw text cycling through a smaller cache, so every Observe re-templatizes
// (plus pays the cache insert and a clock eviction). This bounds the
// worst-case overhead the cache adds to a workload it cannot help.
func BenchmarkObserveCacheMiss(b *testing.B) {
	f := New(Config{Seed: 1, FingerprintCacheSize: 256})
	queries := make([]string, 4096)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT a, b FROM t WHERE x = %d AND y = 2", i)
	}
	at := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts := at.Add(time.Duration(i%3600) * time.Second)
		if err := f.ObserveBatch(queries[i%len(queries)], ts, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveDuringMaintain measures ingest latency while maintenance
// (re-cluster + retrain) runs continuously in the background — the paper's
// §3 requirement that ingest stay off the critical path. Under the old
// global RWMutex every observation stalled for the entire retrain; with the
// striped catalog and copy-on-write epochs it only contends for one stripe
// lock held for the fold.
func BenchmarkObserveDuringMaintain(b *testing.B) {
	f := New(Config{Model: "LR", Horizons: []time.Duration{time.Hour}, Seed: 1})
	w := workload.BusTracker(1)
	to := w.Start.Add(3 * 24 * time.Hour)
	err := w.Replay(w.Start, to, 10*time.Minute, func(ev workload.Event) error {
		return f.ObserveBatch(ev.SQL, ev.At, ev.Count)
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Maintain(context.Background(), to); err != nil {
		b.Fatal(err)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := f.Maintain(context.Background(), to.Add(time.Duration(i+1)*time.Second)); err != nil {
				b.Error(err)
				return
			}
		}
	}()

	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts := to.Add(time.Duration(i%3600) * time.Second)
		if err := f.ObserveBatch("SELECT a, b FROM hot WHERE x = 1 AND y = 2", ts, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkReplayIngest measures full trace replay through the public API.
func BenchmarkReplayIngest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := New(Config{Model: "LR", Seed: 1})
		w := workload.BusTracker(1)
		err := w.Replay(w.Start, w.Start.Add(24*time.Hour), 10*time.Minute, func(ev workload.Event) error {
			return f.ObserveBatch(ev.SQL, ev.At, ev.Count)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// forecastBenchConfig is the configuration forecastBenchState runs under and
// BenchmarkLoad restores under.
var forecastBenchConfig = core.Config{
	Model:                "LR",
	Horizons:             []time.Duration{time.Hour},
	Seed:                 1,
	FingerprintCacheSize: 2000,
}

// The benchmark catalog: benchMembers templates primed with benchDays of
// hourly arrivals from benchStart on.
const benchMembers, benchDays = 1000, 8

var benchStart = time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)

// primeBenchCatalog ingests the benchmark catalog into ctl: each member gets
// 8 days of hourly arrivals in one of four phase-shifted diurnal shapes.
func primeBenchCatalog(ctl *core.Controller) error {
	queries := make([]string, benchMembers)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT a, b FROM t%d WHERE x = 1 AND y = 2", i)
	}
	for h := 0; h < benchDays*24; h++ {
		at := benchStart.Add(time.Duration(h) * time.Hour)
		for i, q := range queries {
			phase := 2 * math.Pi * float64(h+6*(i%4)) / 24
			if err := ctl.Ingest(q, at, int64(20+i%7+int(15*math.Sin(phase)))); err != nil {
				return err
			}
		}
	}
	return nil
}

// forecastBenchState builds, once per process, a controller whose current
// epoch tracks the primed benchmark catalog's 1,000 member templates.
var forecastBenchState = sync.OnceValues(func() (*core.Controller, error) {
	ctl := core.New(forecastBenchConfig)
	if err := primeBenchCatalog(ctl); err != nil {
		return nil, err
	}
	if err := ctl.Refresh(context.Background(), benchStart.Add(benchDays*24*time.Hour)); err != nil {
		return nil, err
	}
	tracked := 0
	for _, cl := range ctl.Tracked() {
		tracked += len(cl.Members)
	}
	if tracked != benchMembers {
		return nil, fmt.Errorf("epoch tracks %d members, want %d", tracked, benchMembers)
	}
	return ctl, nil
})

var forecastSink []core.ClusterForecast

// BenchmarkPrime measures building the benchmark catalog: 1,000 templates ×
// 8 days of hourly arrivals through Controller.Ingest, no maintenance pass.
// Each arrival past a template's last minute bin grows its fine tier, so this
// is the cost of history growth at catalog scale.
func BenchmarkPrime(b *testing.B) {
	if testing.Short() {
		b.Skip("primes 1,000 templates × 8 days")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := primeBenchCatalog(core.New(forecastBenchConfig)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForecast measures Controller.Forecast at catalog-wide scale
// (1,000 tracked members × 8 days of history), the one read path nothing
// else under `go test` times. TestForecastAllocs gates what it allocates;
// the time has no threshold and exists so a change to the forecast path can
// quote its before-number from main.
func BenchmarkForecast(b *testing.B) {
	if testing.Short() {
		b.Skip("primes 1,000 templates × 8 days and runs a maintenance pass")
	}
	ctl, err := forecastBenchState()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if forecastSink, err = ctl.Forecast(time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefresh measures one maintenance pass (sweep, clone, re-cluster,
// LR retrain) over the same 1,000-member catalog: the maintain-side
// counterpart of BenchmarkForecast, equally without a threshold.
func BenchmarkRefresh(b *testing.B) {
	if testing.Short() {
		b.Skip("primes 1,000 templates × 8 days and runs a maintenance pass per iteration")
	}
	ctl, err := forecastBenchState()
	if err != nil {
		b.Fatal(err)
	}
	now := ctl.LastSeen().Add(time.Hour)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ctl.Refresh(context.Background(), now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSave measures Controller.Snapshot of the same 1,000-member catalog
// into a discarding writer, so the number is the encode alone; MB/s is
// relative to the bins (Preprocessor.HistoryBytes). TestSaveLoadAllocs gates
// the bytes allocated; this has no threshold.
func BenchmarkSave(b *testing.B) {
	if testing.Short() {
		b.Skip("primes 1,000 templates × 8 days and runs a maintenance pass")
	}
	ctl, err := forecastBenchState()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(ctl.Preprocessor().HistoryBytes()))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ctl.Snapshot(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoad measures core.RestoreController over that snapshot held in
// memory: frame check, decode and catalog rebuild, no file I/O.
func BenchmarkLoad(b *testing.B) {
	if testing.Short() {
		b.Skip("primes 1,000 templates × 8 days and runs a maintenance pass")
	}
	ctl, err := forecastBenchState()
	if err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := ctl.Snapshot(&snap); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(ctl.Preprocessor().HistoryBytes()))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.RestoreController(forecastBenchConfig, bytes.NewReader(snap.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func newBenchClusterer(parallelism int) *cluster.Clusterer {
	return cluster.New(cluster.Options{Rho: 0.8, Seed: 2, Parallelism: parallelism})
}

func benchHistory(rows, cols int) *mat.Matrix {
	m := mat.New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, 3+float64(j)+2*math.Sin(2*math.Pi*float64(i)/24))
		}
	}
	return m
}
