package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"qb5000/internal/cluster"
	"qb5000/internal/forecast"
	"qb5000/internal/mat"
	"qb5000/internal/preprocess"
	"qb5000/internal/timeseries"
	"qb5000/internal/workload"
)

// traces instantiates the three real-world-style traces.
func traces(seed int64) []*workload.Workload {
	return []*workload.Workload{
		workload.Admissions(seed),
		workload.BusTracker(seed + 1),
		workload.MOOC(seed + 2),
	}
}

// replayInto feeds [from, to) of the workload into a fresh Pre-Processor at
// the given emission step. The catalog is pinned to one stripe so template
// IDs in experiment output are reproducible across machines regardless of
// GOMAXPROCS.
func replayInto(w *workload.Workload, from, to time.Time, step time.Duration, seed int64) (*preprocess.Preprocessor, error) {
	pre := preprocess.New(preprocess.Options{Seed: seed, Shards: 1})
	err := w.Replay(from, to, step, func(ev workload.Event) error {
		_, err := pre.ProcessBatch(ev.SQL, ev.At, ev.Count)
		return err
	})
	if err != nil {
		return nil, err
	}
	return pre, nil
}

// clusteredTrace is a replayed, clustered view of a workload slice.
type clusteredTrace struct {
	w    *workload.Workload
	pre  *preprocess.Preprocessor
	clu  *cluster.Clusterer
	from time.Time
	to   time.Time
}

// buildClusters replays [from, to) and runs daily incremental clustering
// passes so cluster evolution matches the on-line protocol (§7.1).
func buildClusters(w *workload.Workload, from, to time.Time, step time.Duration, rho float64, mode cluster.FeatureMode, seed int64) (*clusteredTrace, error) {
	pre := preprocess.New(preprocess.Options{Seed: seed, Shards: 1})
	clu := cluster.New(cluster.Options{Rho: rho, Seed: seed + 1, Mode: mode})
	ctx := context.Background()
	nextUpdate := from.Add(24 * time.Hour)
	err := w.Replay(from, to, step, func(ev workload.Event) error {
		if !ev.At.Before(nextUpdate) {
			if _, err := clu.Update(ctx, nextUpdate, pre.Templates()); err != nil {
				return err
			}
			nextUpdate = nextUpdate.Add(24 * time.Hour)
		}
		_, err := pre.ProcessBatch(ev.SQL, ev.At, ev.Count)
		return err
	})
	if err != nil {
		return nil, err
	}
	if _, err := clu.Update(ctx, to, pre.Templates()); err != nil {
		return nil, err
	}
	return &clusteredTrace{w: w, pre: pre, clu: clu, from: from, to: to}, nil
}

// subMatrix copies rows [from, to) of m.
func subMatrix(m *mat.Matrix, from, to int) *mat.Matrix {
	if from < 0 {
		from = 0
	}
	if to > m.Rows {
		to = m.Rows
	}
	out := mat.New(to-from, m.Cols)
	copy(out.Data, m.Data[from*m.Cols:to*m.Cols])
	return out
}

// evalResult is the outcome of evaluating one fitted model on a test span.
type evalResult struct {
	mse       float64 // MSE in log space (the paper's Figure 7 metric)
	trainTime time.Duration
}

// fitAndEval trains the model on hist[0:trainRows) and walks the test span,
// predicting row t+horizon-1 from the lag window ending at t, accumulating
// squared error in log space.
func fitAndEval(m forecast.Model, hist *mat.Matrix, trainRows, lag, horizon int) (evalResult, error) {
	var res evalResult
	start := startStopwatch()
	if err := m.Fit(subMatrix(hist, 0, trainRows)); err != nil {
		return res, err
	}
	res.trainTime = start.elapsed()
	mse, err := walkEval(m, hist, trainRows, lag, horizon, nil)
	if err != nil {
		return res, err
	}
	res.mse = mse
	return res, nil
}

// walkEval evaluates a fitted model over the test rows [trainRows,
// hist.Rows-horizon). If combine is non-nil it post-processes each
// prediction (used for ensemble/hybrid compositions built from shared
// fitted components).
func walkEval(m forecast.Model, hist *mat.Matrix, trainRows, lag, horizon int, combine func(t int, pred []float64) []float64) (float64, error) {
	var sqErr float64
	n := 0
	// Stride the evaluation points so long test spans stay cheap while
	// covering the full span.
	stride := (hist.Rows - trainRows) / 200
	if stride < 1 {
		stride = 1
	}
	for t := trainRows; t+horizon <= hist.Rows; t += stride {
		if t-lag < 0 {
			continue
		}
		recent := subMatrix(hist, t-lag, t)
		pred, err := m.Predict(recent)
		if err != nil {
			return 0, err
		}
		if combine != nil {
			pred = combine(t, pred)
		}
		actual := hist.Row(t + horizon - 1)
		for j, p := range pred {
			d := p - actual[j]
			sqErr += d * d
		}
		n += hist.Cols
	}
	if n == 0 {
		return 0, fmt.Errorf("experiments: empty evaluation span")
	}
	return sqErr / float64(n), nil
}

// fprintSeries prints a named time series as "label<TAB>t0 v0 / t1 v1 ..."
// rows, one line per point, downsampled to at most maxPoints.
func fprintSeries(w io.Writer, label string, s *timeseries.Series, maxPoints int) {
	stride := s.Len() / maxPoints
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < s.Len(); i += stride {
		fmt.Fprintf(w, "%s\t%s\t%.1f\n", label, s.TimeOf(i).Format("2006-01-02 15:04"), s.Data[i])
	}
}
