// Indexadvisor: the paper's §7.6 scenario as a runnable demo. QB5000
// observes the BusTracker workload, forecasts the next hour's queries, and
// an AutoAdmin-style selector chooses secondary indexes for the embedded
// relational engine. The demo prints the simulated query cost before and
// after the advisor's builds.
//
// Run with:
//
//	go run ./examples/indexadvisor
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"qb5000/internal/core"
	"qb5000/internal/engine"
	"qb5000/internal/indexsel"
	"qb5000/internal/preprocess"
	"qb5000/internal/sqlparse"
	"qb5000/internal/workload"
)

func main() {
	const scale = 20000
	w := workload.BusTracker(7)

	// An engine with data but only primary-key indexes, as in §7.6.
	eng := engine.New()
	if err := workload.SetupEngine(eng, "bustracker", scale, 7); err != nil {
		log.Fatal(err)
	}

	// QB5000 watches one week of the workload.
	ctl := core.New(core.Config{
		Model:    "LR",
		Horizons: []time.Duration{time.Hour},
		Seed:     7,
	})
	from := w.Start
	to := from.Add(7 * 24 * time.Hour)
	err := w.Replay(from, to, 10*time.Minute, func(ev workload.Event) error {
		return ctl.Ingest(ev.SQL, ev.At, ev.Count)
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := ctl.Refresh(context.Background(), to); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("watched %d queries → %d templates → %d tracked clusters\n\n",
		ctl.Preprocessor().Stats().TotalQueries, ctl.Preprocessor().Len(), len(ctl.Tracked()))

	// Sample live queries and measure their cost before any new indexes.
	sample := liveSample(w, to, 300)
	before := avgCost(eng, sample)

	// Build the advisor's picks from the forecast.
	queries := forecastedQueries(ctl)
	sel := indexsel.New(eng)
	picks := sel.Select(queries, 5, existing(eng))
	fmt.Println("advisor picks (from the predicted workload):")
	for _, c := range picks {
		if _, buildCost, err := eng.CreateIndex(c.Table, c.Columns); err == nil {
			fmt.Printf("  CREATE INDEX ON %s(%v)   [build scanned %d rows]\n",
				c.Table, c.Columns, buildCost.RowsScanned)
		}
	}

	after := avgCost(eng, sample)
	fmt.Printf("\navg simulated query cost: %.0f units → %.0f units (%.1fx faster)\n",
		before, after, before/after)
}

// forecastedQueries converts the controller's per-cluster predictions into
// the weighted concrete queries the selector consumes.
func forecastedQueries(ctl *core.Controller) []indexsel.WeightedQuery {
	preds, err := ctl.Forecast(time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	var out []indexsel.WeightedQuery
	for _, p := range preds {
		for _, id := range p.MemberIDs {
			t, ok := ctl.Preprocessor().Template(id)
			if !ok {
				continue
			}
			samples := t.Params.Sample()
			if len(samples) == 0 {
				continue
			}
			sql := preprocess.Instantiate(t.SQL, samples[0])
			stmt, err := sqlparse.Parse(sql)
			if err != nil {
				continue
			}
			out = append(out, indexsel.WeightedQuery{
				SQL: sql, Stmt: stmt,
				Weight: p.TotalRate / float64(len(p.MemberIDs)),
			})
		}
	}
	return out
}

func liveSample(w *workload.Workload, at time.Time, n int) []string {
	rng := rand.New(rand.NewSource(99))
	var out []string
	for len(out) < n {
		for _, s := range w.Shapes {
			if !s.ActiveFrom.IsZero() && at.Before(s.ActiveFrom) {
				continue
			}
			if s.Rate(at) <= 0 {
				continue
			}
			out = append(out, s.Gen(rng, at))
			if len(out) == n {
				break
			}
		}
	}
	return out
}

func avgCost(eng *engine.Engine, queries []string) float64 {
	var total float64
	for _, q := range queries {
		res, err := eng.Execute(q)
		if err != nil {
			log.Fatalf("execute %q: %v", q, err)
		}
		total += res.Cost.Units()
	}
	return total / float64(len(queries))
}

func existing(eng *engine.Engine) map[string][][]string {
	out := make(map[string][][]string)
	for _, t := range eng.Tables() {
		for _, ix := range t.Indexes() {
			out[t.Name] = append(out[t.Name], ix.Columns)
		}
	}
	return out
}
