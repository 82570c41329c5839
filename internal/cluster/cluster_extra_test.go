package cluster

import (
	"context"
	"testing"
	"time"

	"qb5000/internal/preprocess"
)

func TestCoverageEdgeCases(t *testing.T) {
	clu := New(Options{Rho: 0.8, Seed: 1})
	now := base.Add(24 * time.Hour)
	if got := clu.Coverage(3, now, 24*time.Hour); got != 0 {
		t.Fatalf("empty clusterer coverage = %v", got)
	}
	p := preprocess.New(preprocess.Options{Seed: 1})
	synthTemplate(t, p, "SELECT a FROM t WHERE x = 1", 1, func(int) float64 { return 5 })
	clu.Update(context.Background(), now, p.Templates())
	// k larger than the cluster count covers everything.
	if got := clu.Coverage(99, now, 24*time.Hour); got != 1 {
		t.Fatalf("coverage(99) = %v", got)
	}
}

func TestUpdateResultCounts(t *testing.T) {
	p := preprocess.New(preprocess.Options{Seed: 1})
	synthTemplate(t, p, "SELECT a FROM t WHERE x = 1", 3, dayPeak(8, 1.5, 1))
	synthTemplate(t, p, "SELECT b FROM t WHERE x = 1", 3, dayPeak(8, 1.5, 2))
	clu := New(Options{Rho: 0.8, Seed: 1})
	now := base.Add(3 * 24 * time.Hour)
	res, _ := clu.Update(context.Background(), now, p.Templates())
	if !res.Changed || res.Assigned != 2 {
		t.Fatalf("first update: %+v", res)
	}
	res, _ = clu.Update(context.Background(), now.Add(time.Hour), p.Templates())
	if res.Changed {
		t.Fatalf("steady state flagged changed: %+v", res)
	}
}

func TestClusterMemberIDsSorted(t *testing.T) {
	p := preprocess.New(preprocess.Options{Seed: 1})
	for _, sql := range []string{
		"SELECT a FROM t WHERE x = 1",
		"SELECT b FROM t WHERE x = 1",
		"SELECT c FROM t WHERE x = 1",
	} {
		synthTemplate(t, p, sql, 2, func(int) float64 { return 3 })
	}
	clu := New(Options{Rho: 0.8, Seed: 1})
	now := base.Add(2 * 24 * time.Hour)
	clu.Update(context.Background(), now, p.Templates())
	for _, cl := range clu.Clusters(now, 24*time.Hour) {
		ids := cl.MemberIDs()
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatal("MemberIDs not sorted")
			}
		}
		if cl.Size() != len(ids) {
			t.Fatal("Size disagrees with MemberIDs")
		}
	}
}

func TestEmptyCatalogUpdate(t *testing.T) {
	clu := New(Options{Rho: 0.8, Seed: 1})
	res, _ := clu.Update(context.Background(), base, nil)
	if res.Changed || clu.Len() != 0 {
		t.Fatalf("empty update: %+v, len %d", res, clu.Len())
	}
}

func TestCenterSeriesEmptyCluster(t *testing.T) {
	cl := &Cluster{Members: map[int64]*preprocess.Template{}}
	s := CenterSeries(cl, base, base.Add(2*time.Hour), time.Hour)
	if s.Len() != 2 || s.Total() != 0 {
		t.Fatalf("empty-cluster series: %v", s.Data)
	}
}

func TestShortFeatureWindowForgetsOldBehaviour(t *testing.T) {
	// With a 2-day feature window, behaviour older than 2 days must not
	// affect clustering decisions.
	p := preprocess.New(preprocess.Options{Seed: 1})
	a := synthTemplate(t, p, "SELECT a FROM t WHERE x = 1", 6, dayPeak(8, 1.5, 2))
	b := synthTemplate(t, p, "SELECT b FROM t WHERE x = 1", 6, dayPeak(8, 1.5, 2))
	clu := New(Options{Rho: 0.8, Seed: 1, FeatureWindow: 48 * time.Hour})
	now := base.Add(6 * 24 * time.Hour)
	clu.Update(context.Background(), now, p.Templates())
	ca, _ := clu.Assignment(a.ID)
	cb, _ := clu.Assignment(b.ID)
	if ca != cb {
		t.Fatal("identical recent behaviour should cluster together")
	}
}

func TestNewAppliesDefaults(t *testing.T) {
	clu := New(Options{})
	if opts := clu.opts; opts.Rho != 0.8 || opts.FeatureSize == 0 || opts.FeatureWindow == 0 {
		t.Fatalf("defaulted options = %+v", opts)
	}
	if clu.Len() != 0 {
		t.Fatal("fresh clusterer not empty")
	}
}
