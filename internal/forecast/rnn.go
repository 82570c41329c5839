package forecast

import (
	"fmt"
	"math/rand"

	"qb5000/internal/mat"
	"qb5000/internal/nn"
)

// RNN is QB5000's non-linear forecaster (§6.1): an LSTM network with a
// linear embedding layer of size 25 followed by two LSTM layers of 20 cells
// each (§7.2), reading the lag window as a sequence and regressing the
// arrival-rate vector `horizon` intervals ahead. Training stops early when
// the held-out validation loss stops improving, matching the paper's §7.5
// protocol.
type RNN struct {
	cfg    Config
	embed  int
	hidden []int
	net    *nn.LSTMNet
	fitted bool
	scale  *standardizer
	// TrainedEpochs records how many epochs ran before early stopping.
	TrainedEpochs int
}

// NewRNN creates the LSTM forecaster with the paper's architecture when
// embed/hidden are zero-valued.
func NewRNN(cfg Config, embed int, hidden []int) (*RNN, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if embed <= 0 {
		embed = 25
	}
	if len(hidden) == 0 {
		hidden = []int{20, 20}
	}
	return &RNN{cfg: cfg.withDefaults(), embed: embed, hidden: hidden}, nil
}

// Name implements Model.
func (m *RNN) Name() string { return "RNN" }

// Fit implements Model.
func (m *RNN) Fit(hist *mat.Matrix) error {
	if hist.Cols != m.cfg.Outputs {
		return fmt.Errorf("forecast: RNN fitted with %d cols, configured for %d", hist.Cols, m.cfg.Outputs)
	}
	m.scale = fitStandardizer(hist)
	seqs, ys, err := sequences(m.scale.apply(hist), m.cfg.Lag, m.cfg.Horizon)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed + 13))
	m.net = nn.NewLSTMNet(rng, m.cfg.Outputs, m.embed, m.hidden, m.cfg.Outputs)
	opt := nn.NewAdam(m.cfg.LearnRate, m.net.Params())
	// The trainer's scratch lives only as long as this call: the fitted
	// model, which concurrent readers share, cannot reach it.
	trainer := nn.NewLSTMTrainer(m.net)

	// Hold out the most recent 20% of windows for early stopping.
	split := len(seqs) * 4 / 5
	if split < 1 {
		split = len(seqs)
	}
	trainSeqs, trainYs := seqs[:split], ys[:split]
	valSeqs, valYs := seqs[split:], ys[split:]

	best := -1.0
	patience := 0
	const maxPatience = 3
	m.TrainedEpochs = 0
	order := make([]int, len(trainSeqs))
	for i := range order {
		order[i] = i
	}
	const batch = 16
	bs := make([][][]float64, 0, batch)
	bt := make([][]float64, 0, batch)
	for e := 0; e < m.cfg.Epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for from := 0; from < len(order); from += batch {
			to := from + batch
			if to > len(order) {
				to = len(order)
			}
			bs, bt = bs[:0], bt[:0]
			for _, j := range order[from:to] {
				bs = append(bs, trainSeqs[j])
				bt = append(bt, trainYs[j])
			}
			trainer.TrainBatch(bs, bt)
			opt.Step()
		}
		m.TrainedEpochs = e + 1
		if len(valSeqs) == 0 {
			continue
		}
		val := m.validationLoss(valSeqs, valYs)
		if best < 0 || val < best-1e-6 {
			best = val
			patience = 0
		} else {
			patience++
			if patience >= maxPatience {
				break
			}
		}
	}
	m.fitted = true
	return nil
}

func (m *RNN) validationLoss(seqs [][][]float64, ys [][]float64) float64 {
	var loss float64
	for i, seq := range seqs {
		pred := m.net.Predict(seq)
		for o, p := range pred {
			d := p - ys[i][o]
			loss += d * d
		}
	}
	return loss / float64(len(seqs))
}

// Predict implements Model.
func (m *RNN) Predict(recent *mat.Matrix) ([]float64, error) {
	if !m.fitted {
		return nil, ErrNotFitted
	}
	seq, err := lastSequence(m.scale.apply(recent), m.cfg.Lag)
	if err != nil {
		return nil, err
	}
	return m.scale.invert(m.net.Predict(seq)), nil
}

// SizeBytes implements Model.
func (m *RNN) SizeBytes() int {
	if m.net == nil {
		return 0
	}
	return 8 * m.net.NumWeights()
}
