package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"qb5000/internal/cluster"
	"qb5000/internal/forecast"
	"qb5000/internal/kdtree"
)

func init() {
	register("abl-ensemble", "Ablation: equal vs accuracy-weighted ensemble averaging (§6.1)", ablEnsemble)
	register("abl-featuresize", "Ablation: clustering feature dimensionality (§5.1)", ablFeatureSize)
	register("abl-kdtree", "Ablation: kd-tree vs brute-force nearest-center lookup (§5.2)", ablKDTree)
	register("abl-interval", "Ablation: automatic prediction-interval selection (§7.4 future work)", ablInterval)
}

// ablEnsemble tests the paper's claim that weighting the LR/RNN average by
// training accuracy overfits: it compares equal-weight averaging against
// weights ∝ 1/(train MSE) on held-out data.
func ablEnsemble(opt Options, w io.Writer) error {
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s\n", "workload", "LR", "RNN", "equal", "weighted")
	for _, wl := range traces(opt.seed()) {
		from, to := evalSlice(wl)
		ct, err := buildClusters(wl, from, to, 10*time.Minute, 0.8, cluster.ArrivalRate, opt.seed())
		if err != nil {
			return err
		}
		top := ct.clu.Top(ct.to, 24*time.Hour, 1.0, 3)
		hist := cluster.LogCenterMatrix(top, from, to, time.Hour)
		trainRows := hist.Rows * 2 / 3
		lag, horizon := 24, 24

		cfg := forecast.Config{Lag: lag, Horizon: horizon, Outputs: hist.Cols, Seed: opt.seed(), Epochs: rnnEpochs(opt)}
		lr, err := forecast.NewLR(cfg, 0)
		if err != nil {
			return err
		}
		rnn, err := forecast.NewRNN(cfg, 0, nil)
		if err != nil {
			return err
		}
		train := subMatrix(hist, 0, trainRows)
		if err := lr.Fit(train); err != nil {
			return err
		}
		if err := rnn.Fit(train); err != nil {
			return err
		}

		// Training-set accuracy determines the "weighted" scheme's weights
		// — measured on the same data the models fit, which is exactly why
		// the paper found it overfits.
		lrTrainMSE, err := walkEval(lr, train, lag+horizon, lag, horizon, nil)
		if err != nil {
			return err
		}
		rnnTrainMSE, err := walkEval(rnn, train, lag+horizon, lag, horizon, nil)
		if err != nil {
			return err
		}
		wLR := 1 / (lrTrainMSE + 1e-9)
		wRNN := 1 / (rnnTrainMSE + 1e-9)
		sum := wLR + wRNN
		wLR, wRNN = wLR/sum, wRNN/sum

		// Held-out evaluation for all four predictors.
		var sqLR, sqRNN, sqEq, sqW float64
		n := 0
		stride := (hist.Rows - trainRows - horizon) / 100
		if stride < 1 {
			stride = 1
		}
		for t := trainRows; t+horizon <= hist.Rows; t += stride {
			recent := subMatrix(hist, t-lag, t)
			pl, err := lr.Predict(recent)
			if err != nil {
				return err
			}
			pr, err := rnn.Predict(recent)
			if err != nil {
				return err
			}
			actual := hist.Row(t + horizon - 1)
			for j := range actual {
				dl := pl[j] - actual[j]
				dr := pr[j] - actual[j]
				de := (pl[j]+pr[j])/2 - actual[j]
				dw := wLR*pl[j] + wRNN*pr[j] - actual[j]
				sqLR += dl * dl
				sqRNN += dr * dr
				sqEq += de * de
				sqW += dw * dw
			}
			n += len(actual)
		}
		fmt.Fprintf(w, "%-12s %10.3f %10.3f %10.3f %10.3f\n",
			wl.Name, sqLR/float64(n), sqRNN/float64(n), sqEq/float64(n), sqW/float64(n))
	}
	fmt.Fprintln(w, "(held-out MSE in log space; 'weighted' uses weights from training accuracy)")
	return nil
}

// ablFeatureSize sweeps the number of sampled time points in the clustering
// feature vector. Too few points cannot distinguish arrival patterns; the
// paper's 10k is far past the knee for these traces.
func ablFeatureSize(opt Options, w io.Writer) error {
	sizes := []int{64, 256, 1024, 4096}
	fmt.Fprintf(w, "%-12s", "workload")
	for _, s := range sizes {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("d=%d", s))
	}
	fmt.Fprintln(w, "   (clusters at rho=0.8; update time)")
	for _, wl := range traces(opt.seed()) {
		from, to := evalSlice(wl)
		if opt.Quick {
			to = from.Add(10 * 24 * time.Hour)
		}
		pre, err := replayInto(wl, from, to, 10*time.Minute, opt.seed())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s", wl.Name)
		for _, size := range sizes {
			clu := cluster.New(cluster.Options{Rho: 0.8, Seed: opt.seed() + 1, FeatureSize: size})
			start := startStopwatch()
			if _, err := clu.Update(context.Background(), to, pre.Templates()); err != nil {
				return err
			}
			fmt.Fprintf(w, " %4d/%3dms", clu.Len(), start.elapsed().Milliseconds())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(cluster counts should stabilize once the feature resolves the daily patterns)")
	return nil
}

// ablKDTree measures nearest-center lookup with the kd-tree against a
// brute-force scan across cluster-set sizes. The paper uses a kd-tree
// (§5.2); this quantifies when it matters.
func ablKDTree(opt Options, w io.Writer) error {
	rng := rand.New(rand.NewSource(opt.seed()))
	const dim = 64
	counts := []int{10, 100, 1000}
	if opt.Quick {
		counts = []int{10, 100}
	}
	const probes = 2000
	fmt.Fprintf(w, "%10s %14s %14s\n", "centers", "kd-tree", "brute force")
	for _, n := range counts {
		points := make([][]float64, n)
		tree := kdtree.New(dim)
		for i := range points {
			p := make([]float64, dim)
			for j := range p {
				p[j] = rng.NormFloat64()
			}
			points[i] = p
			if err := tree.Insert(int64(i), p); err != nil {
				return err
			}
		}
		queries := make([][]float64, probes)
		for i := range queries {
			q := make([]float64, dim)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			queries[i] = q
		}

		start := startStopwatch()
		for _, q := range queries {
			tree.Nearest(q)
		}
		kdTime := start.elapsed()

		start = startStopwatch()
		for _, q := range queries {
			best := -1
			bestD := 0.0
			for i, p := range points {
				var d2 float64
				for j := range q {
					d := q[j] - p[j]
					d2 += d * d
				}
				if best < 0 || d2 < bestD {
					best, bestD = i, d2
				}
			}
			_ = best
		}
		bruteTime := start.elapsed()
		fmt.Fprintf(w, "%10d %11.1fµs/op %11.1fµs/op\n", n,
			float64(kdTime.Microseconds())/probes, float64(bruteTime.Microseconds())/probes)
	}
	fmt.Fprintln(w, "(high-dimensional kd-trees lose their asymptotic edge; the paper's choice")
	fmt.Fprintln(w, " matters for large cluster counts, which pruning keeps rare)")
	return nil
}

// ablInterval demonstrates the interval auto-selection the paper defers to
// future work (§7.4): sweep candidate intervals, score each by held-out MSE
// plus a training-time penalty, and pick the argmin.
func ablInterval(opt Options, w io.Writer) error {
	wl := traces(opt.seed())[1] // BusTracker
	from := wl.Start
	to := from.Add(21 * 24 * time.Hour)
	if opt.Quick {
		to = from.Add(14 * 24 * time.Hour)
	}
	ct, err := buildClusters(wl, from, to, time.Minute, 0.8, cluster.ArrivalRate, opt.seed())
	if err != nil {
		return err
	}
	top := ct.clu.Top(ct.to, 24*time.Hour, 0.95, 5)

	candidates := []time.Duration{20 * time.Minute, time.Hour, 2 * time.Hour}
	type scored struct {
		interval time.Duration
		mse      float64
		train    time.Duration
		score    float64
	}
	var results []scored
	const lambda = 0.05 // seconds of training time traded per MSE point
	for _, iv := range candidates {
		hist := cluster.LogCenterMatrix(top, from, to, iv)
		lag := int(24 * time.Hour / iv)
		trainRows := hist.Rows * 3 / 4
		cfg := forecast.Config{Lag: lag, Horizon: 1, Outputs: hist.Cols, Seed: opt.seed()}
		lr, err := forecast.NewLR(cfg, 0)
		if err != nil {
			return err
		}
		res, err := fitAndEval(lr, hist, trainRows, lag, 1)
		if err != nil {
			return err
		}
		s := scored{interval: iv, mse: res.mse, train: res.trainTime}
		s.score = s.mse + lambda*res.trainTime.Seconds()
		results = append(results, s)
	}
	best := results[0]
	fmt.Fprintf(w, "%-10s %10s %12s %10s\n", "interval", "MSE(log)", "train time", "score")
	for _, r := range results {
		fmt.Fprintf(w, "%-10s %10.3f %12s %10.3f\n", r.interval, r.mse, r.train.Round(time.Millisecond), r.score)
		if r.score < best.score {
			best = r
		}
	}
	fmt.Fprintf(w, "selected interval: %s (score = MSE + %.2f × train-seconds)\n", best.interval, lambda)
	return nil
}
