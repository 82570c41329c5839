package forecast

import (
	"fmt"
	"math/rand"

	"qb5000/internal/mat"
	"qb5000/internal/nn"
)

// FNN is the feed-forward neural network baseline (§7.2): a non-linear
// version of LR where the linear map is replaced by an MLP. Unlike the RNN
// it keeps no state between observations, and unlike LR it lacks the
// simplicity that guards against overfitting — the paper finds it rarely
// best and sometimes worst.
type FNN struct {
	cfg    Config
	hidden int
	net    *nn.MLP
	scale  *standardizer
	fitted bool
}

// NewFNN creates a feed-forward model with one tanh hidden layer.
func NewFNN(cfg Config, hidden int) (*FNN, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if hidden <= 0 {
		hidden = 32
	}
	return &FNN{cfg: cfg.withDefaults(), hidden: hidden}, nil
}

// Name implements Model.
func (m *FNN) Name() string { return "FNN" }

// Fit implements Model.
func (m *FNN) Fit(hist *mat.Matrix) error {
	if hist.Cols != m.cfg.Outputs {
		return fmt.Errorf("forecast: FNN fitted with %d cols, configured for %d", hist.Cols, m.cfg.Outputs)
	}
	m.scale = fitStandardizer(hist)
	xs, ys, err := windows(m.scale.apply(hist), m.cfg.Lag, m.cfg.Horizon)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed + 7))
	m.net = nn.NewMLP(rng, m.cfg.Lag*m.cfg.Outputs, m.hidden, m.cfg.Outputs)
	opt := nn.NewAdam(m.cfg.LearnRate, m.net.Params())
	trainer := nn.NewMLPTrainer(m.net)
	const batch = 32
	bx := make([][]float64, batch)
	by := make([][]float64, batch)
	trainMiniBatches(rng, m.cfg.Epochs, len(xs), batch, func(idx []int) {
		bx, by = bx[:len(idx)], by[:len(idx)]
		for i, j := range idx {
			bx[i], by[i] = xs[j], ys[j]
		}
		trainer.TrainBatch(bx, by)
		opt.Step()
	})
	m.fitted = true
	return nil
}

// Predict implements Model.
func (m *FNN) Predict(recent *mat.Matrix) ([]float64, error) {
	if !m.fitted {
		return nil, ErrNotFitted
	}
	win, err := lastWindow(m.scale.apply(recent), m.cfg.Lag)
	if err != nil {
		return nil, err
	}
	return m.scale.invert(m.net.Forward(win)), nil
}

// SizeBytes implements Model.
func (m *FNN) SizeBytes() int {
	if m.net == nil {
		return 0
	}
	return 8 * m.net.NumWeights()
}

// trainMiniBatches runs `epochs` passes over n samples in shuffled
// mini-batches of size batch, invoking step with each batch's indices.
func trainMiniBatches(rng *rand.Rand, epochs, n, batch int, step func(idx []int)) {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for e := 0; e < epochs; e++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for from := 0; from < n; from += batch {
			to := from + batch
			if to > n {
				to = n
			}
			step(order[from:to])
		}
	}
}
