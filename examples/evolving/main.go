// Evolving: workload evolution and shift handling (paper §2.2, §5.2). The
// MOOC application ships a discussion-forum feature mid-trace, introducing
// query templates that never existed before. The controller's new-template
// trigger re-clusters early, and the forecaster adapts.
//
// Run with:
//
//	go run ./examples/evolving
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"qb5000"
	"qb5000/internal/workload"
)

func main() {
	w := workload.MOOC(9)
	f := qb5000.New(qb5000.Config{
		Model:        "LR",
		Horizons:     []time.Duration{time.Hour},
		ClusterEvery: 24 * time.Hour,
		Seed:         9,
	})

	from := w.Start
	to := from.Add(35 * 24 * time.Hour) // covers the May 5 forum launch
	nextTick := from.Add(time.Hour)
	reclusters := 0

	fmt.Println("day  templates  clusters  note")
	lastDay := -1
	err := w.Replay(from, to, 10*time.Minute, func(ev workload.Event) error {
		for !ev.At.Before(nextTick) {
			ran, err := f.Tick(context.Background(), nextTick)
			if err != nil {
				return err
			}
			if ran {
				reclusters++
			}
			day := int(nextTick.Sub(from).Hours() / 24)
			if ran && day != lastDay {
				lastDay = day
				st := f.Stats()
				note := ""
				if launch := time.Date(2017, time.May, 5, 0, 0, 0, 0, time.UTC); nextTick.After(launch) && nextTick.Before(launch.Add(48*time.Hour)) {
					note = "← forum feature launched"
				}
				fmt.Printf("%3d  %9d  %8d  %s\n", day, st.Templates, st.Clusters, note)
			}
			nextTick = nextTick.Add(time.Hour)
		}
		return f.ObserveBatch(ev.SQL, ev.At, ev.Count)
	})
	if err != nil {
		log.Fatal(err)
	}

	st := f.Stats()
	fmt.Printf("\nfinal: %d templates in %d clusters after %d re-cluster passes\n",
		st.Templates, st.Clusters, reclusters)

	preds, err := f.Forecast(time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nforecast one hour ahead (the forum cluster is now tracked):")
	for _, p := range preds {
		fmt.Printf("  cluster %d: %.0f q/interval across %d templates; e.g. %.60s\n",
			p.ClusterID, p.TotalRate, len(p.Templates), p.Templates[0])
	}
}
