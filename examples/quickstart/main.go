// Quickstart: feed a synthetic query stream into QB5000 and print the
// template catalog and a one-hour-ahead arrival-rate forecast.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"qb5000"
)

func main() {
	f := qb5000.New(qb5000.Config{
		Model:    "LR", // closed-form: trains in milliseconds
		Horizons: []time.Duration{time.Hour},
		Seed:     1,
	})

	// Simulate five days of an application's query stream: a lookup that
	// peaks every day at 18:00, a steady ingest INSERT, and a nightly
	// cleanup DELETE. Constants differ per invocation — the Pre-Processor
	// folds them into templates.
	rng := rand.New(rand.NewSource(1))
	start := time.Date(2018, time.March, 1, 0, 0, 0, 0, time.UTC)
	end := start.Add(5 * 24 * time.Hour)
	for at := start; at.Before(end); at = at.Add(time.Minute) {
		h := float64(at.Hour()) + float64(at.Minute())/60
		peak := 1 + 20*math.Exp(-(h-18)*(h-18)/8)
		for i := 0; i < int(peak); i++ {
			sql := fmt.Sprintf("SELECT p.name, p.price FROM products p WHERE p.id = %d", rng.Intn(100000))
			must(f.Observe(sql, at))
		}
		if at.Minute()%2 == 0 {
			sql := fmt.Sprintf("INSERT INTO events (kind, at) VALUES ('view', %d)", at.Unix())
			must(f.Observe(sql, at))
		}
		if at.Hour() == 3 && at.Minute() == 0 {
			must(f.Observe(fmt.Sprintf("DELETE FROM events WHERE at < %d", at.Unix()-86400), at))
		}
	}

	// Periodic maintenance: re-cluster templates and (re)train forecasters.
	must(f.Maintain(context.Background(), end))

	st := f.Stats()
	fmt.Printf("observed %d queries → %d templates → %d clusters (%d modeled)\n\n",
		st.TotalQueries, st.Templates, st.Clusters, st.TrackedClusters)

	fmt.Println("templates:")
	for _, t := range f.Templates() {
		fmt.Printf("  [%d] %7d calls  %s\n", t.ID, t.Count, t.SQL)
	}

	preds, err := f.Forecast(time.Hour)
	if err != nil {
		log.Fatalf("forecast: %v", err)
	}
	fmt.Println("\nforecast for one hour from now (queries per hour):")
	for _, p := range preds {
		fmt.Printf("  cluster %d (%d templates): %.0f total\n",
			p.ClusterID, len(p.Templates), p.TotalRate)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
