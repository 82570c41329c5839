package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"qb5000/internal/cluster"
	"qb5000/internal/mat"
	"qb5000/internal/preprocess"
	"qb5000/internal/timeseries"
	"qb5000/internal/workload"
)

func replayDays(t *testing.T, ctl *Controller, w *workload.Workload, days int) time.Time {
	t.Helper()
	to := w.Start.Add(time.Duration(days) * 24 * time.Hour)
	err := w.Replay(w.Start, to, 10*time.Minute, func(ev workload.Event) error {
		return ctl.Ingest(ev.SQL, ev.At, ev.Count)
	})
	if err != nil {
		t.Fatal(err)
	}
	return to
}

func TestTickCadence(t *testing.T) {
	w := workload.BusTracker(3)
	ctl := New(Config{Model: "LR", ClusterEvery: 24 * time.Hour, Seed: 1})
	to := replayDays(t, ctl, w, 3)

	ran, err := ctl.Tick(context.Background(), to)
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("first tick should recluster")
	}
	// Immediately after, nothing is due and no new templates appeared.
	ran, err = ctl.Tick(context.Background(), to.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("tick re-ran without cadence or trigger")
	}
	ran, err = ctl.Tick(context.Background(), to.Add(25*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("daily cadence did not fire")
	}
}

func TestNewTemplateTriggerForcesRecluster(t *testing.T) {
	w := workload.BusTracker(3)
	ctl := New(Config{Model: "LR", ClusterEvery: 240 * time.Hour, NewTemplateTrigger: 0.2, Seed: 1})
	to := replayDays(t, ctl, w, 2)
	if _, err := ctl.Tick(context.Background(), to); err != nil {
		t.Fatal(err)
	}
	// Inject a burst of brand-new templates (> 20% of catalog).
	n := ctl.Preprocessor().Len()
	for i := 0; i < n; i++ {
		sql := "SELECT brand_new_" + string(rune('a'+i%26)) + " FROM novel WHERE z = 1"
		if err := ctl.Ingest(sql, to.Add(time.Minute), 1); err != nil {
			t.Fatal(err)
		}
	}
	ran, err := ctl.Tick(context.Background(), to.Add(2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("new-template trigger did not fire")
	}
}

func TestForecastUnknownHorizon(t *testing.T) {
	ctl := New(Config{Model: "LR", Seed: 1})
	if _, err := ctl.Forecast(42 * time.Hour); err == nil {
		t.Fatal("expected error for untrained horizon")
	}
}

func TestForecastClampsAbsurdPredictions(t *testing.T) {
	w := workload.BusTracker(3)
	ctl := New(Config{Model: "LR", Horizons: []time.Duration{time.Hour}, Seed: 1})
	to := replayDays(t, ctl, w, 8)
	if err := ctl.Refresh(context.Background(), to); err != nil {
		t.Fatal(err)
	}
	preds, err := ctl.Forecast(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// No forecast may exceed e× the highest training rate (the clamp).
	for _, p := range preds {
		if p.PerTemplateRate > 3*60*10000 {
			t.Fatalf("unclamped prediction: %v", p.PerTemplateRate)
		}
		if p.TotalRate < p.PerTemplateRate {
			t.Fatalf("TotalRate %v below per-template %v", p.TotalRate, p.PerTemplateRate)
		}
	}
}

func TestMultipleHorizons(t *testing.T) {
	w := workload.BusTracker(3)
	ctl := New(Config{
		Model:    "LR",
		Horizons: []time.Duration{time.Hour, 12 * time.Hour},
		Seed:     1,
	})
	to := replayDays(t, ctl, w, 8)
	if err := ctl.Refresh(context.Background(), to); err != nil {
		t.Fatal(err)
	}
	hs := ctl.Horizons()
	if len(hs) != 2 || hs[0] != time.Hour || hs[1] != 12*time.Hour {
		t.Fatalf("Horizons = %v", hs)
	}
	for _, h := range hs {
		if _, err := ctl.Forecast(h); err != nil {
			t.Fatalf("horizon %v: %v", h, err)
		}
	}
}

func TestRetrainSkipsWhenHistoryTooShort(t *testing.T) {
	w := workload.BusTracker(3)
	ctl := New(Config{Model: "LR", Horizons: []time.Duration{time.Hour}, Seed: 1})
	// Only 2 hours of data: not enough for a one-day input window.
	to := w.Start.Add(2 * time.Hour)
	err := w.Replay(w.Start, to, 10*time.Minute, func(ev workload.Event) error {
		return ctl.Ingest(ev.SQL, ev.At, ev.Count)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Refresh(context.Background(), to); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Forecast(time.Hour); err == nil {
		t.Fatal("expected no model with 2h of history")
	}
}

func TestLastSeenTracksIngest(t *testing.T) {
	ctl := New(Config{Seed: 1})
	at := time.Date(2018, 3, 1, 10, 0, 0, 0, time.UTC)
	if err := ctl.Ingest("SELECT a FROM t WHERE x = 1", at, 1); err != nil {
		t.Fatal(err)
	}
	if !ctl.LastSeen().Equal(at) {
		t.Fatalf("LastSeen = %v", ctl.LastSeen())
	}
	// Older arrivals do not move the clock backwards.
	ctl.Ingest("SELECT a FROM t WHERE x = 2", at.Add(-time.Hour), 1)
	if !ctl.LastSeen().Equal(at) {
		t.Fatal("LastSeen moved backwards")
	}
}

// TestRejectedObservationLeavesClock: the controller's clock is the only
// clock and it trusts input, so only an observation that folded may move it.
// A rejected line dated 2099 (or 1999) must leave LastSeen, firstSeen and
// the next Forecast — whose input window ends at LastSeen — untouched,
// through Ingest and IngestMany alike; an accepted later line still advances
// the clock.
func TestRejectedObservationLeavesClock(t *testing.T) {
	w := workload.BusTracker(3)
	ctl := New(Config{Model: "LR", Horizons: []time.Duration{time.Hour}, Seed: 1})
	to := replayDays(t, ctl, w, 8)
	if err := ctl.Refresh(context.Background(), to); err != nil {
		t.Fatal(err)
	}
	rates := func() []float64 {
		t.Helper()
		preds, err := ctl.Forecast(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(preds))
		for i, p := range preds {
			out[i] = p.TotalRate
		}
		return out
	}
	first, last, before := ctl.firstSeen(), ctl.LastSeen(), rates()

	const goodSQL, badSQL = "SELECT a FROM t WHERE x = 1", "this is not sql ("
	future := time.Date(2099, 1, 1, 0, 0, 0, 0, time.UTC)
	past := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)
	single := func(o preprocess.Observation) bool { return ctl.Ingest(o.SQL, o.At, o.Count) == nil }
	many := func(o preprocess.Observation) bool {
		in, _ := ctl.IngestMany([]preprocess.Observation{o})
		return in > 0
	}
	for _, tc := range []struct {
		name   string
		ingest func(preprocess.Observation) bool
		obs    preprocess.Observation
	}{
		{"Ingest/unparseable/future", single, preprocess.Observation{SQL: badSQL, At: future, Count: 1}},
		{"Ingest/unparseable/past", single, preprocess.Observation{SQL: badSQL, At: past, Count: 1}},
		{"Ingest/negative count", single, preprocess.Observation{SQL: goodSQL, At: future, Count: -1}},
		{"IngestMany/unparseable/future", many, preprocess.Observation{SQL: badSQL, At: future, Count: 1}},
		{"IngestMany/unparseable/past", many, preprocess.Observation{SQL: badSQL, At: past, Count: 1}},
		{"IngestMany/negative count", many, preprocess.Observation{SQL: goodSQL, At: future, Count: -1}},
	} {
		if tc.ingest(tc.obs) {
			t.Fatalf("%s: observation was accepted", tc.name)
		}
		if got := ctl.LastSeen(); !got.Equal(last) {
			t.Errorf("%s: LastSeen moved %v -> %v", tc.name, last, got)
		}
		if got := ctl.firstSeen(); !got.Equal(first) {
			t.Errorf("%s: firstSeen moved %v -> %v", tc.name, first, got)
		}
		if got := rates(); !slices.Equal(got, before) {
			t.Errorf("%s: forecast changed %v -> %v", tc.name, before, got)
		}
	}

	for i, ingest := range []func(preprocess.Observation) bool{single, many} {
		later := last.Add(time.Duration(i+1) * time.Minute)
		if !ingest(preprocess.Observation{SQL: goodSQL, At: later, Count: 1}) {
			t.Fatal("well-formed observation rejected")
		}
		if got := ctl.LastSeen(); !got.Equal(later) {
			t.Errorf("accepted line at %v left LastSeen at %v", later, got)
		}
	}
}

// TestEnsembleModelThroughController exercises the RNN training path inside
// the controller with a reduced epoch budget.
func TestEnsembleModelThroughController(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an LSTM")
	}
	w := workload.BusTracker(3)
	ctl := New(Config{
		Model:    "ENSEMBLE",
		Horizons: []time.Duration{time.Hour},
		Epochs:   3,
		Seed:     1,
	})
	to := replayDays(t, ctl, w, 8)
	if err := ctl.Refresh(context.Background(), to); err != nil {
		t.Fatal(err)
	}
	preds, err := ctl.Forecast(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, p := range preds {
		total += p.TotalRate
	}
	if total <= 0 {
		t.Fatalf("ensemble forecast total = %v", total)
	}
}

// TestHybridModelThroughController exercises the spike-model wiring.
func TestHybridModelThroughController(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an LSTM")
	}
	w := workload.BusTracker(3)
	ctl := New(Config{
		Model:    "HYBRID",
		Horizons: []time.Duration{time.Hour},
		Epochs:   2,
		Seed:     1,
	})
	to := replayDays(t, ctl, w, 9)
	if err := ctl.Refresh(context.Background(), to); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Forecast(time.Hour); err != nil {
		t.Fatal(err)
	}
}

// TestIntervalRoundsUpToWholeMinute: arrivals are recorded per minute, so an
// interval between two minutes is read as the next whole one — a 90 s
// interval used to read 60 s of every 90 s bin and drop a third of the
// arrivals.
func TestIntervalRoundsUpToWholeMinute(t *testing.T) {
	forecastAt := func(interval time.Duration) []ClusterForecast {
		ctl := New(Config{Model: "LR", Interval: interval, Lag: time.Hour, Horizons: []time.Duration{10 * time.Minute}, Seed: 1})
		to := replayDays(t, ctl, workload.BusTracker(3), 2)
		if err := ctl.Refresh(context.Background(), to); err != nil {
			t.Fatal(err)
		}
		fc, err := ctl.Forecast(10 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return fc
	}
	got, want := forecastAt(90*time.Second), forecastAt(2*time.Minute)
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("90 s config forecasts %d clusters, 2 min config %d", len(got), len(want))
	}
	for i := range want {
		if got[i].PerTemplateRate != want[i].PerTemplateRate || got[i].TotalRate != want[i].TotalRate {
			t.Fatalf("cluster %d: 90 s config forecasts %v (total %v), 2 min config %v (total %v)",
				i, got[i].PerTemplateRate, got[i].TotalRate, want[i].PerTemplateRate, want[i].TotalRate)
		}
	}
}

// TestRestoreKeepsClock: a restored controller reads its clock bounds off
// the catalog's templates, so Load hands back the LastSeen that Save saw.
func TestRestoreKeepsClock(t *testing.T) {
	ctl := New(Config{Model: "LR", Seed: 1, Shards: 4})
	replayDays(t, ctl, workload.BusTracker(3), 1)
	var snap bytes.Buffer
	if err := ctl.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	back, err := RestoreController(Config{Model: "LR", Seed: 1, Shards: 2}, &snap)
	if err != nil {
		t.Fatal(err)
	}
	if !back.LastSeen().Equal(ctl.LastSeen()) || back.LastSeen().IsZero() {
		t.Fatalf("LastSeen after Load = %v, before Save = %v", back.LastSeen(), ctl.LastSeen())
	}
	if !back.firstSeen().Equal(ctl.firstSeen()) {
		t.Fatalf("firstSeen after Load = %v, before Save = %v", back.firstSeen(), ctl.firstSeen())
	}
}

// TestSpikeMatrixAlignsMembersToTheHour: every member of a cluster is read
// over the same clock hours, wherever in an hour its own history starts. (The
// hourly view used to be assembled per member from sixty-minute groups
// counted from that member's first minute, so a template first seen at
// 00:40 had its 01:00–01:39 arrivals booked to hour 0.)
func TestSpikeMatrixAlignsMembersToTheHour(t *testing.T) {
	start := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	pre := preprocess.New(preprocess.Options{Seed: 1, Shards: 1})
	ingest := func(sql string, at time.Time, n int64) {
		t.Helper()
		if _, err := pre.ProcessBatch(sql, at, n); err != nil {
			t.Fatal(err)
		}
	}
	ingest("SELECT a FROM t WHERE x = 1", start, 6)
	ingest("SELECT a FROM t WHERE x = 1", start.Add(70*time.Minute), 2)
	ingest("SELECT b FROM u WHERE y = 1", start.Add(40*time.Minute), 4)
	ingest("SELECT b FROM u WHERE y = 1", start.Add(65*time.Minute), 10)
	members := map[int64]*preprocess.Template{}
	for _, tm := range pre.Templates() {
		members[tm.ID] = tm
	}
	m := spikeMatrix(start.Add(2*time.Hour+5*time.Minute), []*cluster.Cluster{{ID: 1, Members: members}})
	if m.Rows != 2 || m.Cols != 1 {
		t.Fatalf("spike matrix is %dx%d, want 2x1", m.Rows, m.Cols)
	}
	// Hour 0 holds 6 and 4 arrivals, hour 1 holds 2 and 10; the centre
	// averages the two members.
	for i, want := range []float64{math.Log1p(5), math.Log1p(6)} {
		if got := m.At(i, 0); got != want {
			t.Errorf("hour %d = %v, want %v", i, got, want)
		}
	}
}

// referenceRates is the forecast oracle: the model input Forecast must build
// and the rates it must return, computed the slow way from templates the
// caller resolved. Each tracked cluster's
// centre is rebuilt bin by bin with a plain minute loop over History.At —
// members in ascending ID order, a member `resolve` does not know read from
// the epoch's frozen copy — then averaged, logged, and handed to the epoch's
// own model. It shares no code with Preprocessor.Window, History.Window or
// cluster.CenterSeries.
func referenceRates(t *testing.T, ctl *Controller, horizon time.Duration, resolve map[int64]*preprocess.Template) (input *mat.Matrix, perTemplate, total []float64) {
	t.Helper()
	ep := ctl.cur.Load()
	interval, lag := ctl.cfg.Interval, ctl.lagIntervals()
	now := ctl.LastSeen().Truncate(interval)
	recent := mat.New(lag, len(ep.tracked))
	for j, cl := range ep.tracked {
		ids := cl.MemberIDs()
		for i := 0; i < lag; i++ {
			binStart := now.Add(-time.Duration(lag-i) * interval)
			var centre float64
			for _, id := range ids {
				tm, ok := resolve[id]
				if !ok {
					tm = cl.Members[id]
				}
				var bin float64
				for at := binStart; at.Before(binStart.Add(interval)); at = at.Add(time.Minute) {
					bin += tm.History.At(at)
				}
				centre += bin
			}
			recent.Set(i, j, timeseries.Log1pClamped(centre*(1/float64(len(ids)))))
		}
	}
	pred, err := ep.models[horizon].Predict(recent)
	if err != nil {
		t.Fatal(err)
	}
	for j, cl := range ep.tracked {
		rate := timeseries.Expm1Clamped(min(pred[j], ep.maxTrainLog+1))
		perTemplate = append(perTemplate, rate)
		total = append(total, rate*float64(len(cl.Members)))
	}
	return recent, perTemplate, total
}

// TestForecastMatchesReference holds Forecast, which sums its input out of
// the live stripes, to the oracle bit for bit: at 1, 2 and 8 stripes, on a
// catalog restored onto a different stripe count (canonical IDs off their
// home stripe), and with a tracked member evicted since the epoch was built.
// Arrivals are always ingested after the maintenance pass, and the test
// checks that they move the reference, so a Forecast that read the epoch's
// frozen histories cannot pass.
func TestForecastMatchesReference(t *testing.T) {
	const horizon = time.Hour
	w := workload.BusTracker(3)
	trained := func(t *testing.T, cfg Config) (*Controller, time.Time) {
		ctl := New(cfg)
		to := replayDays(t, ctl, w, 3)
		if err := ctl.Refresh(context.Background(), to); err != nil {
			t.Fatal(err)
		}
		return ctl, to
	}
	// ingest replays the workload over [from, from+d), leaving out the
	// template with semantic key `skip`. It then makes the order members are
	// summed in visible: whole counts add exactly in any order, so in every
	// tracked cluster of three or more the first member is booked +2^53
	// arrivals and the last −2^53 in one bin of the lag window — summed
	// ascending the counts in between lose their low bit to the big term,
	// summed descending they do not.
	ingest := func(t *testing.T, ctl *Controller, from time.Time, d time.Duration, skip string) {
		t.Helper()
		err := w.Replay(from, from.Add(d), 10*time.Minute, func(ev workload.Event) error {
			if skip != "" {
				res, err := preprocess.Templatize(ev.SQL)
				if err != nil {
					return err
				}
				if res.Features.SemanticKey() == skip {
					return nil
				}
			}
			return ctl.Ingest(ev.SQL, ev.At, ev.Count)
		})
		if err != nil {
			t.Fatal(err)
		}
		ep := ctl.cur.Load()
		at := from.Add(d - 2*time.Hour)
		for j, cl := range ep.tracked {
			ids := ep.memberIDs[j]
			if len(ids) < 3 {
				continue
			}
			for id, v := range map[int64]float64{ids[0]: 1 << 53, ids[len(ids)-1]: -(1 << 53)} {
				live, err := ctl.Preprocessor().Process(cl.Members[id].SQL, at)
				if err != nil || live.ID != id {
					t.Fatalf("member %d did not fold back into itself: %v, %v", id, live, err)
				}
				live.History.Record(at, v)
			}
		}
	}
	check := func(t *testing.T, ctl *Controller) {
		t.Helper()
		got, err := ctl.Forecast(horizon)
		if err != nil {
			t.Fatal(err)
		}
		live := make(map[int64]*preprocess.Template)
		for _, tm := range ctl.Preprocessor().Templates() {
			live[tm.ID] = tm
		}
		wantInput, wantPer, wantTotal := referenceRates(t, ctl, horizon, live)
		// The input is compared too: a model can round a last-bit difference
		// in one lag away, and the summation order shows nowhere else.
		input := ctl.inputMatrix(ctl.cur.Load())
		if !slices.EqualFunc(input.Data, wantInput.Data, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Errorf("model input %v, reference %v", input.Data, wantInput.Data)
		}
		if len(got) == 0 || len(got) != len(wantPer) {
			t.Fatalf("Forecast returned %d clusters, the reference %d", len(got), len(wantPer))
		}
		for j, p := range got {
			if math.Float64bits(p.PerTemplateRate) != math.Float64bits(wantPer[j]) ||
				math.Float64bits(p.TotalRate) != math.Float64bits(wantTotal[j]) {
				t.Errorf("cluster %d: Forecast (%v, %v), reference (%v, %v)",
					p.Cluster.ID, p.PerTemplateRate, p.TotalRate, wantPer[j], wantTotal[j])
			}
			if !slices.Equal(p.MemberIDs, p.Cluster.MemberIDs()) {
				t.Errorf("cluster %d: MemberIDs %v, cluster's %v", p.Cluster.ID, p.MemberIDs, p.Cluster.MemberIDs())
			}
		}
		if _, frozenPer, _ := referenceRates(t, ctl, horizon, nil); slices.Equal(frozenPer, wantPer) {
			t.Fatal("the epoch's frozen histories give the same reference: nothing was ingested after the maintain")
		}
	}

	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ctl, to := trained(t, Config{Model: "LR", Horizons: []time.Duration{horizon}, Seed: 1, Shards: shards})
			ingest(t, ctl, to, 3*time.Hour, "")
			check(t, ctl)
		})
	}

	t.Run("restored onto other stripes", func(t *testing.T) {
		src := New(Config{Model: "LR", Seed: 1, Shards: 4})
		to := replayDays(t, src, w, 3)
		var snap bytes.Buffer
		if err := src.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		ctl, err := RestoreController(Config{Model: "LR", Horizons: []time.Duration{horizon}, Seed: 1, Shards: 8}, &snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.Refresh(context.Background(), to); err != nil {
			t.Fatal(err)
		}
		ingest(t, ctl, to, 3*time.Hour, "")
		check(t, ctl)
	})

	t.Run("evicted member", func(t *testing.T) {
		ctl, to := trained(t, Config{Model: "LR", Horizons: []time.Duration{horizon}, Seed: 1, Shards: 2, EvictAfter: 6 * time.Hour})
		ep := ctl.cur.Load()
		victim := ep.tracked[0].Members[ep.memberIDs[0][1]]
		// Seven hours without the victim, then a catalog sweep that does
		// not rebuild the epoch: the victim is gone from the stripes while
		// seventeen hours of its arrivals are still inside the lag window.
		ingest(t, ctl, to, 7*time.Hour, victim.Key)
		ctl.Preprocessor().Maintain(to.Add(7 * time.Hour))
		if _, ok := ctl.Preprocessor().Template(victim.ID); ok {
			t.Fatalf("template %d was not evicted", victim.ID)
		}
		var frozen [1]float64
		victim.History.Window(frozen[:], ctl.LastSeen().Truncate(time.Hour).Add(-24*time.Hour), 24*time.Hour)
		if frozen[0] == 0 {
			t.Fatal("the evicted member has no arrivals in the lag window; the fallback is not exercised")
		}
		check(t, ctl)
	})
}
