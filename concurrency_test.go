package qb5000

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qb5000/internal/failpoint"
	"qb5000/internal/leakcheck"
	"qb5000/internal/workload"
)

// replayForecaster builds a forecaster over an 8-day BusTracker slice and
// trains it, returning the forecaster and the end of the replay window.
func replayForecaster(t *testing.T, cfg Config) (*Forecaster, time.Time) {
	t.Helper()
	f := New(cfg)
	w := workload.BusTracker(3)
	to := w.Start.Add(8 * 24 * time.Hour)
	err := w.Replay(w.Start, to, 10*time.Minute, func(ev workload.Event) error {
		return f.ObserveBatch(ev.SQL, ev.At, ev.Count)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Maintain(context.Background(), to); err != nil {
		t.Fatal(err)
	}
	return f, to
}

// TestForecastDeterminismAcrossParallelism pins the tentpole guarantee: the
// parallel retrain/cluster pipeline produces bit-identical forecasts to the
// sequential one, because per-model seeds derive from Config.Seed rather
// than scheduling order and the clusterer applies pool results in a fixed
// order.
func TestForecastDeterminismAcrossParallelism(t *testing.T) {
	horizons := []time.Duration{time.Hour, 2 * time.Hour, 3 * time.Hour}
	base := Config{
		Model:    "ENSEMBLE",
		Horizons: horizons,
		Seed:     3,
		Epochs:   4,
	}

	seq := base
	seq.Parallelism = 1
	par := base
	par.Parallelism = 8

	fSeq, _ := replayForecaster(t, seq)
	fPar, _ := replayForecaster(t, par)

	for _, h := range horizons {
		a, err := fSeq.Forecast(h)
		if err != nil {
			t.Fatalf("sequential forecast %v: %v", h, err)
		}
		b, err := fPar.Forecast(h)
		if err != nil {
			t.Fatalf("parallel forecast %v: %v", h, err)
		}
		if len(a) != len(b) {
			t.Fatalf("horizon %v: %d vs %d clusters", h, len(a), len(b))
		}
		for i := range a {
			if a[i].ClusterID != b[i].ClusterID {
				t.Fatalf("horizon %v cluster %d: IDs %d vs %d", h, i, a[i].ClusterID, b[i].ClusterID)
			}
			if a[i].PerTemplateRate != b[i].PerTemplateRate || a[i].TotalRate != b[i].TotalRate {
				t.Fatalf("horizon %v cluster %d: sequential (%v, %v) != parallel (%v, %v)",
					h, i, a[i].PerTemplateRate, a[i].TotalRate, b[i].PerTemplateRate, b[i].TotalRate)
			}
		}
	}
}

// TestConcurrentMaintainAndForecast exercises the Forecaster's concurrency
// contract under the race detector: maintenance rebuilds model state while
// forecasts, stats, and observations run from other goroutines. The
// observer replays the workload's own next hour minute by minute, so the
// arrivals fold into the very histories the forecasts are summing in place.
func TestConcurrentMaintainAndForecast(t *testing.T) {
	f, to := replayForecaster(t, Config{
		Model:       "LR",
		Horizons:    []time.Duration{time.Hour},
		Seed:        9,
		Parallelism: 4,
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := f.Forecast(time.Hour); err != nil {
					t.Errorf("forecast: %v", err)
					return
				}
				f.Stats()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := workload.BusTracker(3).Replay(to, to.Add(time.Hour), time.Minute, func(ev workload.Event) error {
			return f.ObserveBatch(ev.SQL, ev.At, ev.Count)
		})
		if err != nil {
			t.Errorf("observe: %v", err)
		}
	}()
	for i := 0; i < 3; i++ {
		if err := f.Maintain(context.Background(), to.Add(time.Duration(i+1)*time.Minute)); err != nil {
			t.Fatalf("maintain: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestShardedIngestStress is the tentpole's race gate: P ingest goroutines
// hammer ObserveMany against the striped catalog while one goroutine runs
// Tick in a loop (epoch republication) and readers pull Forecast, Stats,
// and Templates continuously. Run under -race in CI. The query accounting
// must come out exact — stripe merging may not lose or double-count — and
// the whole storm may not leak a goroutine. The fingerprint cache is
// enabled and deliberately small: each ingester's query pool repeats every
// batch (hits) while distinct texts cycle through (clock evictions), and
// the Maintain loop's template eviction sweeps the cache concurrently.
func TestShardedIngestStress(t *testing.T) {
	leakcheck.Check(t, func() {
		f, to := replayForecaster(t, Config{
			Model:       "LR",
			Horizons:    []time.Duration{time.Hour},
			Seed:        11,
			Parallelism: 2,
			// Shards: 0 → GOMAXPROCS stripes, the contended default.
			FingerprintCacheSize: 128,
		})
		baseline := f.Stats().TotalQueries

		ingesters := runtime.GOMAXPROCS(0)
		if ingesters < 2 {
			ingesters = 2
		}
		const batches, perBatch = 20, 32
		var ingested atomic.Int64
		var loops, ing sync.WaitGroup
		stop := make(chan struct{})

		// Readers: forecasts and stats must never block on ingest or Tick.
		for g := 0; g < 2; g++ {
			loops.Add(1)
			go func() {
				defer loops.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := f.Forecast(time.Hour); err != nil {
						t.Errorf("forecast during storm: %v", err)
						return
					}
					f.Stats()
					f.Templates()
				}
			}()
		}

		// Maintenance: re-cluster and republish epochs mid-storm.
		loops.Add(1)
		go func() {
			defer loops.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := f.Maintain(context.Background(), to.Add(time.Duration(i+1)*time.Minute)); err != nil {
					t.Errorf("maintain during storm: %v", err)
					return
				}
			}
		}()

		// Ingesters: distinct and shared templates, all stripes touched.
		for g := 0; g < ingesters; g++ {
			ing.Add(1)
			go func(g int) {
				defer ing.Done()
				for b := 0; b < batches; b++ {
					obs := make([]Observation, 0, perBatch)
					at := to.Add(time.Duration(b) * time.Minute)
					for i := 0; i < perBatch; i++ {
						obs = append(obs, Observation{
							SQL:   fmt.Sprintf("SELECT v FROM storm%d WHERE k = %d", (g+i)%7, i),
							At:    at,
							Count: int64(1 + i%3),
						})
					}
					res := f.ObserveMany(obs)
					if res.Rejected != 0 {
						t.Errorf("goroutine %d: %d rejected", g, res.Rejected)
						return
					}
					ingested.Add(res.Ingested)
				}
			}(g)
		}

		ing.Wait()
		close(stop)
		loops.Wait()

		if got, want := f.Stats().TotalQueries, baseline+ingested.Add(0); got != want {
			t.Fatalf("TotalQueries = %d, want %d (stripe merge lost/double-counted)", got, want)
		}
		if st := f.Stats(); st.CacheHits == 0 {
			t.Error("storm produced no fingerprint-cache hits; the stress did not exercise the fast path")
		}
		if err := f.Maintain(context.Background(), to.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Forecast(time.Hour); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDeadlockSentinel is the gate on lock-order deadlocks (qb5000vet's
// static lockorder analyzer was retired in its favour): it drives the whole
// lock neighborhood of ingest and maintenance — fpShard
// RLock→read→RUnlock on cache hits, catalogShard fold locks, the fpCache
// insert/evict path (a deliberately tiny cache keeps clock evictions
// constant), and the Maintain loop that sweeps both layers — and fails with
// a full goroutine dump if the storm wedges instead of finishing. The
// workload runs off the test goroutine so a deadlock cannot take the test
// binary's timeout machinery down with it; all failures inside use Errorf,
// which is safe off-goroutine. Run under -race in CI.
func TestDeadlockSentinel(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		leakcheck.Check(t, func() {
			f, to := replayForecaster(t, Config{
				Model:       "LR",
				Horizons:    []time.Duration{time.Hour},
				Seed:        7,
				Parallelism: 2,
				// Tiny on purpose: every batch both hits and evicts, so the
				// cache's lock traffic interleaves with catalog folds.
				FingerprintCacheSize: 32,
			})
			ingesters := runtime.GOMAXPROCS(0)
			if ingesters < 2 {
				ingesters = 2
			}
			const batches, perBatch = 12, 24
			var loops, ing sync.WaitGroup
			stop := make(chan struct{})

			// Readers cross the forecast/stats/snapshot locks against ingest.
			for g := 0; g < 2; g++ {
				loops.Add(1)
				go func() {
					defer loops.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := f.Forecast(time.Hour); err != nil {
							t.Errorf("forecast during sentinel storm: %v", err)
							return
						}
						f.Stats()
						f.Templates()
					}
				}()
			}

			// Maintenance churns template eviction and the cache sweep, the
			// path that nests cache-shard locks under the maintain lock.
			loops.Add(1)
			go func() {
				defer loops.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := f.Maintain(context.Background(), to.Add(time.Duration(i+1)*time.Minute)); err != nil {
						t.Errorf("maintain during sentinel storm: %v", err)
						return
					}
				}
			}()

			// Ingesters repeat a small pool (cache hits) while distinct texts
			// cycle through (insert + clock eviction churn).
			for g := 0; g < ingesters; g++ {
				ing.Add(1)
				go func(g int) {
					defer ing.Done()
					for b := 0; b < batches; b++ {
						obs := make([]Observation, 0, perBatch)
						at := to.Add(time.Duration(b) * time.Minute)
						for i := 0; i < perBatch; i++ {
							obs = append(obs, Observation{
								SQL:   fmt.Sprintf("SELECT v FROM sentinel%d WHERE k = %d", (g+i)%5, i%40),
								At:    at,
								Count: 1,
							})
						}
						if res := f.ObserveMany(obs); res.Rejected != 0 {
							t.Errorf("goroutine %d: %d rejected", g, res.Rejected)
							return
						}
					}
				}(g)
			}

			ing.Wait()
			close(stop)
			loops.Wait()
		})
	}()

	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("deadlock sentinel tripped: the ingest/maintain/read storm did not finish within 2m; goroutine dump:\n%s", buf[:n])
	}
}

// TestSaveBytesIdenticalAcrossShards pins the catalog determinism contract
// at the public API: Save emits byte-identical snapshots whether ingest ran
// over 1, 2, or 8 stripes — and, since the fingerprint cache is pure derived
// state, whether it was disabled or enabled at any size.
func TestSaveBytesIdenticalAcrossShards(t *testing.T) {
	var ref []byte
	for _, shards := range []int{1, 2, 8} {
		for _, fpcache := range []int{0, 512} {
			f := New(Config{Model: "LR", Horizons: []time.Duration{time.Hour}, Seed: 5, Shards: shards, FingerprintCacheSize: fpcache})
			w := workload.BusTracker(5)
			to := w.Start.Add(24 * time.Hour)
			err := w.Replay(w.Start, to, 10*time.Minute, func(ev workload.Event) error {
				return f.ObserveBatch(ev.SQL, ev.At, ev.Count)
			})
			if err != nil {
				t.Fatal(err)
			}
			if fpcache > 0 && f.Stats().CacheHits == 0 {
				t.Errorf("shards=%d fpcache=%d: replay produced no cache hits", shards, fpcache)
			}
			var buf bytes.Buffer
			if err := f.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = buf.Bytes()
				continue
			}
			if !bytes.Equal(ref, buf.Bytes()) {
				t.Fatalf("shards=%d fpcache=%d: Save bytes differ from the shards=1 cache-off reference (%d vs %d bytes)", shards, fpcache, buf.Len(), len(ref))
			}
		}
	}
}

// TestMaintainContextCancellation verifies a cancelled context aborts the
// maintenance pass instead of finishing the retrain.
func TestMaintainContextCancellation(t *testing.T) {
	f := New(Config{Model: "LR", Horizons: []time.Duration{time.Hour}, Seed: 7, Parallelism: 2})
	w := workload.BusTracker(7)
	to := w.Start.Add(5 * 24 * time.Hour)
	err := w.Replay(w.Start, to, 10*time.Minute, func(ev workload.Event) error {
		return f.ObserveBatch(ev.SQL, ev.At, ev.Count)
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.Maintain(ctx, to); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The aborted pass must not leave half-trained models behind.
	if _, err := f.Forecast(time.Hour); err == nil {
		t.Fatal("expected no trained model after cancelled maintenance")
	}
	// A later uncancelled pass recovers cleanly.
	if err := f.Maintain(context.Background(), to); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Forecast(time.Hour); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMatrixSaveUnderIngest is the durability gate: with ingest
// goroutines hammering the forecaster, a fault injected at every registered
// failpoint in the atomic-write protocol must abort the save with an error
// that wraps failpoint.ErrInjected, leave the previous snapshot on disk
// byte-identical, litter no temp files, and leave the file loadable. Every
// failpoint fires before its operation, so an aborted save never reaches
// the rename — that invariant is what this matrix pins down.
func TestCrashMatrixSaveUnderIngest(t *testing.T) {
	defer failpoint.Reset()
	leakcheck.Check(t, func() {
		cfg := Config{
			Model:    "LR",
			Horizons: []time.Duration{time.Hour},
			Seed:     9,
		}
		f, to := replayForecaster(t, cfg)

		dir := t.TempDir()
		path := filepath.Join(dir, "forecaster.snap")
		if err := f.SaveFile(path); err != nil {
			t.Fatalf("golden save: %v", err)
		}
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		sites := failpoint.Registered()
		if len(sites) == 0 {
			t.Fatal("no failpoints registered; fsx should have registered its protocol sites")
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				at := to
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					at = at.Add(time.Second)
					sql := fmt.Sprintf("SELECT c%d FROM crash_matrix WHERE k = %d", g, i%17)
					if err := f.ObserveBatch(sql, at, 1); err != nil {
						t.Errorf("ingester %d: %v", g, err)
						return
					}
				}
			}(g)
		}

		for _, site := range sites {
			if err := failpoint.SetNth(site, 1); err != nil {
				t.Fatalf("arming %s: %v", site, err)
			}
			err := f.SaveFile(path)
			if cerr := failpoint.Clear(site); cerr != nil {
				t.Fatalf("clearing %s: %v", site, cerr)
			}
			if err == nil {
				t.Fatalf("site %s: save succeeded with a fault armed", site)
			}
			if !errors.Is(err, failpoint.ErrInjected) {
				t.Fatalf("site %s: error %v does not wrap ErrInjected", site, err)
			}
			onDisk, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatalf("site %s: previous snapshot unreadable: %v", site, rerr)
			}
			if !bytes.Equal(onDisk, golden) {
				t.Fatalf("site %s: aborted save mutated the snapshot (%d vs %d bytes)", site, len(onDisk), len(golden))
			}
			entries, derr := os.ReadDir(dir)
			if derr != nil {
				t.Fatal(derr)
			}
			if len(entries) != 1 {
				names := make([]string, 0, len(entries))
				for _, e := range entries {
					names = append(names, e.Name())
				}
				t.Fatalf("site %s: temp litter after aborted save: %v", site, names)
			}
			if _, lerr := LoadFile(cfg, path); lerr != nil {
				t.Fatalf("site %s: snapshot unloadable after aborted save: %v", site, lerr)
			}
		}

		close(stop)
		wg.Wait()

		// With all faults cleared, the protocol commits cleanly over the
		// post-ingest state and the result round-trips.
		if err := f.SaveFile(path); err != nil {
			t.Fatalf("final save: %v", err)
		}
		g2, err := LoadFile(cfg, path)
		if err != nil {
			t.Fatalf("final load: %v", err)
		}
		if got, want := g2.Stats().TotalQueries, f.Stats().TotalQueries; got != want {
			t.Fatalf("reloaded TotalQueries = %d, want %d", got, want)
		}
	})
}
