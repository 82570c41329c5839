package qb5000

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"qb5000/internal/workload"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	f := New(Config{
		Model:    "LR",
		Horizons: []time.Duration{time.Hour},
		Seed:     11,
	})
	w := workload.BusTracker(11)
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

	st := f.Stats()
	if st.TotalQueries == 0 || st.Templates == 0 || st.Clusters == 0 || st.TrackedClusters == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ParseErrors != 0 {
		t.Fatalf("parse errors: %d", st.ParseErrors)
	}

	preds, err := f.Forecast(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != st.TrackedClusters {
		t.Fatalf("%d forecasts for %d tracked clusters", len(preds), st.TrackedClusters)
	}
	for _, p := range preds {
		if len(p.Templates) == 0 {
			t.Fatal("forecast without member templates")
		}
		if p.TotalRate < 0 || p.PerTemplateRate < 0 {
			t.Fatal("negative rates")
		}
		for _, sql := range p.Templates {
			if !strings.Contains(sql, "?") && !strings.Contains(strings.ToUpper(sql), "SELECT") &&
				!strings.Contains(strings.ToUpper(sql), "INSERT") &&
				!strings.Contains(strings.ToUpper(sql), "UPDATE") &&
				!strings.Contains(strings.ToUpper(sql), "DELETE") {
				t.Fatalf("template does not look like SQL: %q", sql)
			}
		}
	}

	ts := f.Templates()
	if len(ts) != st.Templates {
		t.Fatalf("Templates() = %d entries, stats say %d", len(ts), st.Templates)
	}
	foundSample := false
	for _, tpl := range ts {
		if len(tpl.SampleParams) > 0 {
			foundSample = true
		}
		if tpl.Count <= 0 || tpl.LastSeen.Before(tpl.FirstSeen) {
			t.Fatalf("template bookkeeping: %+v", tpl)
		}
	}
	if !foundSample {
		t.Fatal("no template kept parameter samples")
	}
}

func TestObserveRejectsBadSQL(t *testing.T) {
	f := New(Config{Seed: 1})
	if err := f.Observe("NOT SQL AT ALL", time.Now()); err == nil {
		t.Fatal("expected parse error")
	}
	if f.Stats().ParseErrors != 1 {
		t.Fatal("parse error not counted")
	}
}

func TestTemplatizeHelper(t *testing.T) {
	tpl, params, err := Templatize("SELECT a FROM t WHERE x = 42 AND s = 'v'")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(tpl, "42") || strings.Contains(tpl, "'v'") {
		t.Fatalf("constants leaked: %q", tpl)
	}
	if len(params) != 2 || params[0] != "42" || params[1] != "v" {
		t.Fatalf("params = %v", params)
	}
	if _, _, err := Templatize("garbage"); err == nil {
		t.Fatal("expected error")
	}
}

func TestTickThroughPublicAPI(t *testing.T) {
	f := New(Config{Model: "LR", ClusterEvery: time.Hour, Seed: 5})
	at := time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 180; i++ {
		if err := f.ObserveBatch("SELECT a FROM t WHERE x = 1", at.Add(time.Duration(i)*time.Minute), 5); err != nil {
			t.Fatal(err)
		}
	}
	ran, err := f.Tick(context.Background(), at.Add(3*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("tick did not run maintenance")
	}
	if f.Stats().Clusters != 1 {
		t.Fatalf("clusters = %d", f.Stats().Clusters)
	}
}

func TestLogicalFeatureMode(t *testing.T) {
	f := New(Config{Model: "LR", UseLogicalFeatures: true, Seed: 2})
	at := time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC)
	f.Observe("SELECT a FROM t WHERE x = 1", at)
	f.Observe("SELECT a FROM t WHERE y = 2", at)
	if err := f.Maintain(context.Background(), at.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Clusters == 0 {
		t.Fatal("no clusters in logical mode")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := Config{Model: "LR", Horizons: []time.Duration{time.Hour}, Seed: 4}
	f := New(cfg)
	w := workload.BusTracker(4)
	to := w.Start.Add(8 * 24 * time.Hour)
	err := w.Replay(w.Start, to, 10*time.Minute, func(ev workload.Event) error {
		return f.ObserveBatch(ev.SQL, ev.At, ev.Count)
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats().Templates != f.Stats().Templates {
		t.Fatalf("templates: %d vs %d", g.Stats().Templates, f.Stats().Templates)
	}
	// The restored instance can train and forecast from the restored
	// histories alone.
	if err := g.Maintain(context.Background(), to); err != nil {
		t.Fatal(err)
	}
	preds, err := g.Forecast(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) == 0 {
		t.Fatal("no forecasts after restore")
	}
	if _, err := Load(cfg, bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("expected error for corrupt snapshot")
	}
}
