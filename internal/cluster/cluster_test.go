package cluster

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"qb5000/internal/preprocess"
)

var base = time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC)

// synthTemplate builds a template whose per-minute arrival rate over the
// past `days` days follows rate(minuteOfDay).
func synthTemplate(t *testing.T, p *preprocess.Preprocessor, sql string, days int, rate func(minuteOfDay int) float64) *preprocess.Template {
	t.Helper()
	var tpl *preprocess.Template
	for d := 0; d < days; d++ {
		for m := 0; m < 24*60; m += 10 {
			v := rate(m)
			if v <= 0 {
				continue
			}
			at := base.Add(time.Duration(d)*24*time.Hour + time.Duration(m)*time.Minute)
			got, err := p.ProcessBatch(sql, at, int64(v))
			if err != nil {
				t.Fatal(err)
			}
			tpl = got
		}
	}
	return tpl
}

func dayPeak(center, width float64, scale float64) func(int) float64 {
	return func(m int) float64 {
		h := float64(m) / 60
		d := h - center
		return scale * (1 + 40*math.Exp(-d*d/(2*width*width)))
	}
}

func TestClusterGroupsSimilarPatterns(t *testing.T) {
	p := preprocess.New(preprocess.Options{Seed: 1})
	// Two shapes with the same morning peak at different volumes, one with
	// an opposite (evening) pattern.
	a := synthTemplate(t, p, "SELECT a FROM t WHERE x = 1", 7, dayPeak(8, 1.5, 2))
	b := synthTemplate(t, p, "SELECT b FROM t WHERE x = 1", 7, dayPeak(8, 1.5, 1))
	c := synthTemplate(t, p, "SELECT c FROM t WHERE x = 1", 7, dayPeak(20, 1.5, 2))

	clu := New(Options{Rho: 0.8, Seed: 2})
	now := base.Add(7 * 24 * time.Hour)
	res, _ := clu.Update(context.Background(), now, p.Templates())
	if res.Assigned != 3 {
		t.Fatalf("assigned %d templates", res.Assigned)
	}
	ca, _ := clu.Assignment(a.ID)
	cb, _ := clu.Assignment(b.ID)
	cc, _ := clu.Assignment(c.ID)
	if ca != cb {
		t.Fatalf("same-pattern templates split: %d vs %d", ca, cb)
	}
	if ca == cc {
		t.Fatal("opposite patterns merged")
	}
	if clu.Len() != 2 {
		t.Fatalf("clusters = %d, want 2", clu.Len())
	}
}

func TestClusterStableAcrossUpdates(t *testing.T) {
	p := preprocess.New(preprocess.Options{Seed: 1})
	synthTemplate(t, p, "SELECT a FROM t WHERE x = 1", 7, dayPeak(8, 1.5, 2))
	synthTemplate(t, p, "SELECT b FROM t WHERE x = 1", 7, dayPeak(8, 1.5, 1))
	clu := New(Options{Rho: 0.8, Seed: 2})
	now := base.Add(7 * 24 * time.Hour)
	clu.Update(context.Background(), now, p.Templates())
	res, _ := clu.Update(context.Background(), now.Add(time.Hour), p.Templates())
	if res.Moved != 0 || res.Merged != 0 || res.Removed != 0 {
		t.Fatalf("stable workload churned: %+v", res)
	}
}

func TestClusterRemovesDeadTemplates(t *testing.T) {
	p := preprocess.New(preprocess.Options{Seed: 1})
	a := synthTemplate(t, p, "SELECT a FROM t WHERE x = 1", 3, dayPeak(8, 1.5, 1))
	clu := New(Options{Rho: 0.8, Seed: 2})
	now := base.Add(3 * 24 * time.Hour)
	clu.Update(context.Background(), now, p.Templates())
	if clu.Len() != 1 {
		t.Fatalf("clusters = %d", clu.Len())
	}
	// Catalog is now empty: the template must be dropped.
	res, _ := clu.Update(context.Background(), now.Add(time.Hour), nil)
	if res.Removed != 1 || clu.Len() != 0 {
		t.Fatalf("removed = %d, clusters = %d", res.Removed, clu.Len())
	}
	if _, ok := clu.Assignment(a.ID); ok {
		t.Fatal("assignment survived removal")
	}
}

func TestClusterMergesWhenPatternsConverge(t *testing.T) {
	// Two templates start with different patterns (separate clusters), then
	// both shift to the same pattern; the next update should merge or move
	// them together.
	p := preprocess.New(preprocess.Options{Seed: 1})
	morning := dayPeak(8, 1.5, 2)
	evening := dayPeak(20, 1.5, 2)
	a := synthTemplate(t, p, "SELECT a FROM t WHERE x = 1", 5, morning)
	b := synthTemplate(t, p, "SELECT b FROM t WHERE x = 1", 5, evening)

	clu := New(Options{Rho: 0.8, Seed: 2, FeatureWindow: 5 * 24 * time.Hour})
	now := base.Add(5 * 24 * time.Hour)
	clu.Update(context.Background(), now, p.Templates())
	ca0, _ := clu.Assignment(a.ID)
	cb0, _ := clu.Assignment(b.ID)
	if ca0 == cb0 {
		t.Fatal("expected initial separation")
	}

	// Both now follow the morning pattern for long enough that the feature
	// window (kept short) only sees converged behaviour.
	for d := 5; d < 11; d++ {
		for m := 0; m < 24*60; m += 10 {
			at := base.Add(time.Duration(d)*24*time.Hour + time.Duration(m)*time.Minute)
			p.ProcessBatch("SELECT a FROM t WHERE x = 1", at, int64(morning(m)))
			p.ProcessBatch("SELECT b FROM t WHERE x = 1", at, int64(morning(m)))
		}
	}
	later := base.Add(11 * 24 * time.Hour)
	clu.Update(context.Background(), later, p.Templates())
	ca1, _ := clu.Assignment(a.ID)
	cb1, _ := clu.Assignment(b.ID)
	if ca1 != cb1 {
		t.Fatalf("converged templates still split: %d vs %d", ca1, cb1)
	}
}

func TestVolumeAndCoverage(t *testing.T) {
	p := preprocess.New(preprocess.Options{Seed: 1})
	big := synthTemplate(t, p, "SELECT a FROM t WHERE x = 1", 2, func(int) float64 { return 10 })
	small := synthTemplate(t, p, "SELECT b FROM u WHERE y = 1", 2, dayPeak(3, 0.3, 0)) // tiny
	_ = small
	clu := New(Options{Rho: 0.8, Seed: 2})
	now := base.Add(2 * 24 * time.Hour)
	clu.Update(context.Background(), now, p.Templates())

	clusters := clu.Clusters(now, 24*time.Hour)
	if len(clusters) == 0 {
		t.Fatal("no clusters")
	}
	// Largest-first ordering: the constant-10 template dominates.
	if _, ok := clusters[0].Members[big.ID]; !ok {
		t.Fatal("largest cluster should contain the high-volume template")
	}
	cov1 := clu.Coverage(1, now, 24*time.Hour)
	covAll := clu.Coverage(len(clusters), now, 24*time.Hour)
	if cov1 <= 0 || cov1 > 1 {
		t.Fatalf("coverage(1) = %v", cov1)
	}
	if math.Abs(covAll-1) > 1e-9 {
		t.Fatalf("coverage(all) = %v, want 1", covAll)
	}

	// The volume a cluster is ranked by is the minute-by-minute sum of its
	// members' histories over the window.
	for _, r := range clusters {
		var want float64
		for _, id := range r.MemberIDs() {
			for at := now.Add(-24 * time.Hour); at.Before(now); at = at.Add(time.Minute) {
				want += r.Members[id].History.At(at)
			}
		}
		if r.Volume != want {
			t.Fatalf("cluster %d ranked by volume %v, minute loop says %v", r.ID, r.Volume, want)
		}
	}
	// Top cuts the same ranking: the dominant cluster alone reaches cov1,
	// full coverage needs every cluster, and maxK caps the set.
	if top := clu.Top(now, 24*time.Hour, cov1, len(clusters)); len(top) != 1 || top[0] != clusters[0].Cluster {
		t.Fatalf("Top(cover=%v) = %d clusters, want the largest alone", cov1, len(top))
	}
	if top := clu.Top(now, 24*time.Hour, 1, len(clusters)); len(top) != len(clusters) {
		t.Fatalf("Top(cover=1) = %d clusters, want %d", len(top), len(clusters))
	}
	if top := clu.Top(now, 24*time.Hour, 1, 1); len(top) != 1 {
		t.Fatalf("Top(maxK=1) = %d clusters", len(top))
	}
}

func TestCenterSeriesAveragesMembers(t *testing.T) {
	p := preprocess.New(preprocess.Options{Seed: 1})
	a := synthTemplate(t, p, "SELECT a FROM t WHERE x = 1", 1, func(int) float64 { return 4 })
	b := synthTemplate(t, p, "SELECT b FROM t WHERE x = 1", 1, func(int) float64 { return 2 })
	cl := &Cluster{Members: map[int64]*preprocess.Template{a.ID: a, b.ID: b}}
	s := CenterSeries(cl, base, base.Add(time.Hour), time.Hour)
	// Each template records 4 (resp. 2) arrivals per 10 minutes → 24/12 per
	// hour; the center is the average: (24+12)/2 = 18.
	if got := s.Data[0]; got != 18 {
		t.Fatalf("center = %v, want 18", got)
	}
	m := LogCenterMatrix([]*Cluster{cl}, base, base.Add(time.Hour), time.Hour)
	if m.Rows != 1 || m.Cols != 1 || m.At(0, 0) != math.Log1p(18) {
		t.Fatalf("log-centre matrix = %dx%d %v, want 1x1 [log1p(18)]", m.Rows, m.Cols, m.Data)
	}
}

func TestLogicalModeClustersByStructure(t *testing.T) {
	p := preprocess.New(preprocess.Options{Seed: 1})
	// Same table/structure, wildly different arrival patterns.
	a := synthTemplate(t, p, "SELECT a FROM t WHERE x = 1", 3, dayPeak(8, 1.5, 3))
	b := synthTemplate(t, p, "SELECT a FROM t WHERE y = 2", 3, dayPeak(20, 1.5, 3))
	clu := New(Options{Rho: 0.3, Seed: 2, Mode: Logical})
	now := base.Add(3 * 24 * time.Hour)
	clu.Update(context.Background(), now, p.Templates())
	ca, _ := clu.Assignment(a.ID)
	cb, _ := clu.Assignment(b.ID)
	if ca != cb {
		t.Fatalf("logical mode split structurally similar templates (rho low): %d vs %d", ca, cb)
	}
}

func TestManyTemplatesBounded(t *testing.T) {
	// Stress: 60 templates across 3 patterns must yield a small cluster
	// count and a consistent assignment map.
	p := preprocess.New(preprocess.Options{Seed: 1})
	patterns := []func(int) float64{dayPeak(8, 1.5, 1), dayPeak(14, 1.5, 1), dayPeak(20, 1.5, 1)}
	for i := 0; i < 60; i++ {
		synthTemplate(t, p, fmt.Sprintf("SELECT c%d FROM t WHERE x = 1", i), 3, patterns[i%3])
	}
	clu := New(Options{Rho: 0.8, Seed: 2})
	now := base.Add(3 * 24 * time.Hour)
	clu.Update(context.Background(), now, p.Templates())
	if clu.Len() > 6 {
		t.Fatalf("expected ~3 clusters, got %d", clu.Len())
	}
	for _, tpl := range p.Templates() {
		cid, ok := clu.Assignment(tpl.ID)
		if !ok {
			t.Fatalf("template %d unassigned", tpl.ID)
		}
		cl, ok := clu.Cluster(cid)
		if !ok {
			t.Fatalf("assignment to missing cluster %d", cid)
		}
		if _, member := cl.Members[tpl.ID]; !member {
			t.Fatalf("assignment map inconsistent for template %d", tpl.ID)
		}
	}
}
