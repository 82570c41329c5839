package forecast

import (
	"fmt"
	"math"

	"qb5000/internal/mat"
)

// KR is Nadaraya–Watson kernel regression (§6.1): the prediction for an
// input window is the kernel-weighted average of all training targets, where
// weights decay with the distance between the input and each training
// window. It requires no iterative training, assumes no functional form,
// and — uniquely among the evaluated models — recognizes rare repeating
// spikes because a spike-period input lands close to the prior year's
// spike-period inputs in the kernel space (Appendix B).
type KR struct {
	cfg       Config
	bandwidth float64 // 0 → median-distance heuristic at fit time
	xs        [][]float64
	ys        [][]float64
	h2        float64 // resolved squared bandwidth
}

// NewKR creates a kernel-regression model. bandwidth ≤ 0 selects the median
// pairwise-distance heuristic.
func NewKR(cfg Config, bandwidth float64) (*KR, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &KR{cfg: cfg, bandwidth: bandwidth}, nil
}

// Name implements Model.
func (m *KR) Name() string { return "KR" }

// Fit implements Model: KR is non-parametric, so fitting materializes the
// training windows and selects the kernel bandwidth. An explicit bandwidth
// is honored; otherwise candidates derived from the median pairwise distance
// are scored by leave-neighborhood-out validation on the training windows —
// an oversmoothed kernel would average the rare spike windows away, which is
// exactly the failure the paper's spike experiment (§7.3) punishes.
func (m *KR) Fit(hist *mat.Matrix) error {
	if hist.Cols != m.cfg.Outputs {
		return fmt.Errorf("forecast: KR fitted with %d cols, configured for %d", hist.Cols, m.cfg.Outputs)
	}
	xs, ys, err := windows(hist, m.cfg.Lag, m.cfg.Horizon)
	if err != nil {
		return err
	}
	m.xs, m.ys = xs, ys
	if m.bandwidth > 0 {
		m.h2 = m.bandwidth * m.bandwidth
		return nil
	}
	med := medianPairwiseDistance(xs)
	// A degenerate all-identical sample yields exactly zero median distance.
	if med == 0 {
		med = 1
	}
	m.h2 = med * med * m.selectBandwidthScale(med)
	return nil
}

// selectBandwidthScale cross-validates multipliers of the median distance.
// It returns the squared multiplier minimizing held-out error over a strided
// sample of training windows, excluding each sample's temporal neighborhood
// (windows overlapping it) from its own prediction.
func (m *KR) selectBandwidthScale(med float64) float64 {
	scales := []float64{0.02, 0.05, 0.1, 0.25, 0.5, 1}
	n := len(m.xs)
	sampleStride := n / 150
	if sampleStride < 1 {
		sampleStride = 1
	}
	exclude := m.cfg.Lag + m.cfg.Horizon

	type sample struct {
		idx int
		d2  []float64
	}
	var samples []sample
	for i := 0; i < n; i += sampleStride {
		d2 := make([]float64, n)
		for j := range m.xs {
			d2[j] = sqDistance(m.xs[i], m.xs[j])
		}
		samples = append(samples, sample{idx: i, d2: d2})
	}

	bestScale, bestErr := 1.0, math.Inf(1)
	for _, sc := range scales {
		h2 := med * med * sc * sc
		var sqErr float64
		count := 0
		for _, s := range samples {
			pred := make([]float64, m.cfg.Outputs)
			var wsum float64
			for j := range m.xs {
				if j > s.idx-exclude && j < s.idx+exclude {
					continue
				}
				w := math.Exp(-s.d2[j] / (2 * h2))
				wsum += w
				for o, v := range m.ys[j] {
					pred[o] += w * v
				}
			}
			// Kernel weights underflow to exactly zero, not approximately.
			if wsum == 0 {
				continue
			}
			for o := range pred {
				d := pred[o]/wsum - m.ys[s.idx][o]
				sqErr += d * d
			}
			count++
		}
		if count == 0 {
			continue
		}
		if err := sqErr / float64(count); err < bestErr {
			bestErr, bestScale = err, sc
		}
	}
	return bestScale * bestScale
}

// Predict implements Model. The bandwidth adapts per query: the effective
// kernel width is capped by the distance to the k-th nearest training
// window, so a query deep inside a dense normal-period region averages its
// dense neighborhood while a query resembling a rare spike run-up locks onto
// the handful of prior spike-season windows instead of being smoothed into
// the global mean (Appendix B).
func (m *KR) Predict(recent *mat.Matrix) ([]float64, error) {
	if m.xs == nil {
		return nil, ErrNotFitted
	}
	q, err := lastWindow(recent, m.cfg.Lag)
	if err != nil {
		return nil, err
	}
	d2s := make([]float64, len(m.xs))
	minD2 := math.Inf(1)
	for i, x := range m.xs {
		d2s[i] = sqDistance(q, x)
		if d2s[i] < minD2 {
			minD2 = d2s[i]
		}
	}
	h2 := m.h2
	if k := m.neighborhood(); k > 0 && k < len(d2s) {
		sorted := append([]float64(nil), d2s...)
		// Sharpen the kernel so the k nearest windows dominate: at the
		// k-th neighbour's distance the weight has already fallen to e^-2.
		kth := quickselectFloat(sorted, k) / 4
		if kth > 0 && kth < h2 {
			h2 = kth
		}
	}
	out := make([]float64, m.cfg.Outputs)
	var wsum float64
	for i, y := range m.ys {
		// Subtract the minimum exponent for numerical stability.
		w := math.Exp(-(d2s[i] - minD2) / (2 * h2))
		wsum += w
		for o, v := range y {
			out[o] += w * v
		}
	}
	// Kernel weights underflow to exactly zero, not approximately.
	if wsum == 0 {
		// All weights underflowed; fall back to the nearest neighbour.
		best := 0
		for i, d := range d2s {
			if d < d2s[best] {
				best = i
			}
		}
		copy(out, m.ys[best])
		return out, nil
	}
	for o := range out {
		out[o] /= wsum
	}
	return out, nil
}

// neighborhood is the k used for the adaptive bandwidth cap.
func (m *KR) neighborhood() int {
	k := len(m.xs) / 200
	if k < 6 {
		k = 6
	}
	return k
}

// SizeBytes implements Model: KR must retain its training set, so its
// footprint grows linearly with history length (§7.5).
func (m *KR) SizeBytes() int {
	n := 0
	for _, x := range m.xs {
		n += len(x)
	}
	for _, y := range m.ys {
		n += len(y)
	}
	return 8 * n
}

// TrainingInputs exposes the retained input windows, used by the Appendix B
// analysis that projects the KR input space with PCA (Figure 15).
func (m *KR) TrainingInputs() [][]float64 { return m.xs }

func sqDistance(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// medianPairwiseDistance estimates the kernel bandwidth from a sample of
// pairwise distances (deterministic strided sample to stay O(n)).
func medianPairwiseDistance(xs [][]float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	stride := len(xs)/64 + 1
	var ds []float64
	for i := 0; i < len(xs); i += stride {
		for j := i + stride; j < len(xs); j += stride {
			ds = append(ds, math.Sqrt(sqDistance(xs[i], xs[j])))
		}
	}
	if len(ds) == 0 {
		ds = append(ds, math.Sqrt(sqDistance(xs[0], xs[len(xs)-1])))
	}
	// Median by partial selection.
	k := len(ds) / 2
	return quickselectFloat(ds, k)
}

func quickselectFloat(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return a[k]
}
