package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"qb5000/internal/core"
	"qb5000/internal/timeseries"
	"qb5000/internal/workload"
)

func init() {
	register("fig17", "Noisy composite workload with shifts (Figure 17, Appendix D)", fig17)
}

// fig17 replays the eight-benchmark composite trace, letting the controller
// re-cluster whenever the new-template share spikes (a benchmark switch
// replaces the whole template population), and compares the predicted
// one-hour-ahead total volume against the actual volume.
func fig17(opt Options, w io.Writer) error {
	wl := workload.Noisy(opt.seed())
	from, to := wl.Start, wl.End
	if opt.Quick {
		to = from.Add(40 * time.Hour) // four benchmark slots
	}

	ctl := core.New(core.Config{
		Model:              "LR",
		Horizons:           []time.Duration{time.Hour},
		Interval:           10 * time.Minute,
		Lag:                3 * time.Hour,
		TrainWindow:        12 * time.Hour,
		ClusterEvery:       time.Hour,
		NewTemplateTrigger: 0.2,
		Seed:               opt.seed(),
		Shards:             1, // reproducible template IDs in experiment output
	})

	actual := timeseries.NewSeries(from, time.Hour)
	type point struct {
		at        time.Time
		predicted float64
	}
	var preds []point
	reclusters := 0

	next := from.Add(time.Hour)
	err := wl.Replay(from, to, time.Minute, func(ev workload.Event) error {
		for !ev.At.Before(next) {
			ran, err := ctl.Tick(context.Background(), next)
			if err != nil {
				return err
			}
			if ran {
				reclusters++
			}
			// Predict the coming hour's total volume.
			if fc, err := ctl.Forecast(time.Hour); err == nil {
				var sum float64
				for _, p := range fc {
					sum += p.TotalRate
				}
				// TotalRate is per 10-minute interval; scale to per hour.
				preds = append(preds, point{at: next.Add(time.Hour), predicted: sum * 6})
			}
			next = next.Add(time.Hour)
		}
		actual.Add(ev.At, float64(ev.Count))
		return ctl.Ingest(ev.SQL, ev.At, ev.Count)
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "benchmark slots switch every %dh; controller re-clustered %d times\n", 10, reclusters)
	fmt.Fprintln(w, "hour\tactual(q/h)\tpredicted(q/h)")
	var sqErr float64
	n := 0
	for _, p := range preds {
		// Skip the cold-start hours before the first full training pass.
		if p.at.Sub(from) < 4*time.Hour {
			continue
		}
		a := actual.At(p.at)
		if a == 0 && p.predicted == 0 {
			continue
		}
		fmt.Fprintf(w, "%.0f\t%.0f\t%.0f\n", p.at.Sub(from).Hours(), a, p.predicted)
		d := timeseries.Log1pClamped(p.predicted) - timeseries.Log1pClamped(a)
		sqErr += d * d
		n++
	}
	if n > 0 {
		fmt.Fprintf(w, "overall MSE (log space): %.2f over %d hourly predictions\n", sqErr/float64(n), n)
	}
	return nil
}
