package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"qb5000/internal/preprocess"
)

// buildCatalog synthesizes a catalog with several distinct arrival shapes so
// a clustering pass exercises assignment, eviction, and merging.
func buildCatalog(t *testing.T, seed int64) *preprocess.Preprocessor {
	t.Helper()
	p := preprocess.New(preprocess.Options{Seed: seed})
	shapes := []struct {
		center, width, scale float64
	}{
		{8, 1.5, 2}, {8, 1.5, 1}, {8, 1.6, 3},
		{20, 1.5, 2}, {20, 1.4, 1},
		{13, 3.0, 2},
	}
	for i, s := range shapes {
		sql := fmt.Sprintf("SELECT c%d FROM t WHERE x = 1", i)
		synthTemplate(t, p, sql, 7, dayPeak(s.center, s.width, s.scale))
	}
	return p
}

// TestUpdateDeterministicAcrossParallelism verifies the clusterer's core
// contract after the pool wiring: identical assignments, centers, and
// update summaries at every parallelism setting.
func TestUpdateDeterministicAcrossParallelism(t *testing.T) {
	now := base.Add(7 * 24 * time.Hour)

	type outcome struct {
		res     UpdateResult
		assign  map[int64]int64
		centers map[int64][]float64
	}
	run := func(parallelism int) outcome {
		p := buildCatalog(t, 1)
		clu := New(Options{Rho: 0.8, Seed: 2, Parallelism: parallelism})
		res, err := clu.Update(context.Background(), now, p.Templates())
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		// A second pass exercises the eviction scan against existing
		// clusters rather than only fresh assignment.
		if _, err := clu.Update(context.Background(), now.Add(24*time.Hour), p.Templates()); err != nil {
			t.Fatalf("parallelism %d second pass: %v", parallelism, err)
		}
		out := outcome{res: res, assign: map[int64]int64{}, centers: map[int64][]float64{}}
		for _, tpl := range p.Templates() {
			if cid, ok := clu.Assignment(tpl.ID); ok {
				out.assign[tpl.ID] = cid
			}
		}
		for _, id := range clu.clusterIDs() {
			out.centers[id] = clu.clusters[id].center
		}
		return out
	}

	want := run(1)
	for _, par := range []int{2, 8} {
		got := run(par)
		if got.res != want.res {
			t.Errorf("parallelism %d: UpdateResult %+v, want %+v", par, got.res, want.res)
		}
		if !reflect.DeepEqual(got.assign, want.assign) {
			t.Errorf("parallelism %d: assignments diverge:\n got %v\nwant %v", par, got.assign, want.assign)
		}
		if !reflect.DeepEqual(got.centers, want.centers) {
			t.Errorf("parallelism %d: centers diverge", par)
		}
	}
}

func TestUpdateCancellation(t *testing.T) {
	p := buildCatalog(t, 1)
	clu := New(Options{Rho: 0.8, Seed: 2, Parallelism: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := clu.Update(ctx, base.Add(7*24*time.Hour), p.Templates()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// An uncancelled retry succeeds from the stale state.
	if _, err := clu.Update(context.Background(), base.Add(7*24*time.Hour), p.Templates()); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadersDuringUpdate holds Clusterer.mu's contract: the read
// accessors (Len, Assignment, Cluster, Clusters) run from other goroutines
// while Update rewrites the assignment and the cluster set — every other
// pass drops half the templates and the next one places them again. Run it
// under -race: an accessor that reads without the lock is a data race on
// those maps.
func TestConcurrentReadersDuringUpdate(t *testing.T) {
	p := buildCatalog(t, 1)
	templates := p.Templates()
	clu := New(Options{Rho: 0.8, Seed: 2, Parallelism: 2})
	now := base.Add(7 * 24 * time.Hour)
	stop := make(chan struct{})
	var ready, done sync.WaitGroup
	for g := 0; g < 2; g++ {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			ready.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				clu.Len()
				for _, tpl := range templates {
					if cid, ok := clu.Assignment(tpl.ID); ok {
						clu.Cluster(cid)
					}
				}
				clu.Clusters(now, time.Hour)
			}
		}()
	}
	ready.Wait()
	for i := 0; i < 8; i++ {
		live := templates
		if i%2 == 1 {
			live = templates[:len(templates)/2]
		}
		if _, err := clu.Update(context.Background(), now, live); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	done.Wait()
}
