// Package forecast implements QB5000's Forecaster (paper §6): the six
// candidate models evaluated in the paper (LR, ARMA, KR, FNN, RNN, PSRNN)
// plus the ENSEMBLE (LR+RNN average) and HYBRID (ENSEMBLE corrected by KR)
// combiners that QB5000 actually deploys.
//
// All models share one contract: they observe a history matrix whose rows
// are consecutive time intervals and whose columns are the tracked clusters'
// arrival rates in log space (log1p), and they predict the arrival-rate row
// `horizon` intervals after the end of a given recent window. One model is
// trained per prediction horizon (§6.2), jointly across clusters so that
// information is shared between them (§7.2).
package forecast

import (
	"errors"
	"fmt"

	"qb5000/internal/mat"
)

// ErrNotFitted is returned by Predict before Fit succeeds.
var ErrNotFitted = errors.New("forecast: model not fitted")

// ErrInsufficientData is returned when the history is too short to build a
// single training window.
var ErrInsufficientData = errors.New("forecast: insufficient history")

// Model is a multi-output arrival-rate forecaster for one fixed horizon.
type Model interface {
	// Name identifies the model family ("LR", "RNN", ...).
	Name() string
	// Fit trains the model on a history matrix (rows = intervals, cols =
	// clusters, values = log1p arrival rates).
	Fit(hist *mat.Matrix) error
	// Predict forecasts the row `horizon` intervals past the end of recent,
	// which must contain at least Lag rows.
	Predict(recent *mat.Matrix) ([]float64, error)
	// SizeBytes estimates the serialized model footprint (Table 4).
	SizeBytes() int
}

// Config carries the hyperparameters shared by the models. Per the paper
// (§7.2) hyperparameters are fixed across workloads and horizons rather
// than tuned per trial.
type Config struct {
	// Lag is the input window length in intervals; the paper uses the last
	// day's arrival rates as input for LR and KR.
	Lag int
	// Horizon is how many intervals ahead the model predicts.
	Horizon int
	// Outputs is the number of clusters predicted jointly.
	Outputs int
	// Seed drives weight initialization for the iterative models.
	Seed int64
	// Epochs bounds training iterations for the gradient-based models.
	Epochs int
	// LearnRate is the Adam step size.
	LearnRate float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Lag <= 0 {
		return fmt.Errorf("forecast: Lag must be positive, got %d", c.Lag)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("forecast: Horizon must be positive, got %d", c.Horizon)
	}
	if c.Outputs <= 0 {
		return fmt.Errorf("forecast: Outputs must be positive, got %d", c.Outputs)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Epochs == 0 {
		c.Epochs = 40
	}
	if c.LearnRate == 0 {
		c.LearnRate = 0.01
	}
	return c
}

// windows builds direct-forecast training pairs from the history: the input
// is the flattened lag window ending at row t-1 and the target is row
// t+horizon-1.
func windows(hist *mat.Matrix, lag, horizon int) (xs, ys [][]float64, err error) {
	t := hist.Rows
	if t < lag+horizon {
		return nil, nil, fmt.Errorf("%w: %d rows, need %d", ErrInsufficientData, t, lag+horizon)
	}
	for end := lag; end+horizon <= t; end++ {
		xs = append(xs, flattenWindow(hist, end-lag, end))
		ys = append(ys, append([]float64(nil), hist.Row(end+horizon-1)...))
	}
	return xs, ys, nil
}

// sequences builds the same pairs but keeps the lag window as a sequence of
// per-interval vectors for the recurrent models. Every window and target is
// a view of hist's rows, so the caller must own hist and leave it unchanged.
func sequences(hist *mat.Matrix, lag, horizon int) (seqs [][][]float64, ys [][]float64, err error) {
	t := hist.Rows
	if t < lag+horizon {
		return nil, nil, fmt.Errorf("%w: %d rows, need %d", ErrInsufficientData, t, lag+horizon)
	}
	rows := make([][]float64, t)
	for i := range rows {
		rows[i] = hist.Data[i*hist.Cols : (i+1)*hist.Cols : (i+1)*hist.Cols]
	}
	n := t - lag - horizon + 1
	seqs, ys = make([][][]float64, n), make([][]float64, n)
	for w := range seqs {
		seqs[w] = rows[w : w+lag : w+lag]
		ys[w] = rows[w+lag+horizon-1]
	}
	return seqs, ys, nil
}

// flattenWindow concatenates rows [from, to) of hist.
func flattenWindow(hist *mat.Matrix, from, to int) []float64 {
	out := make([]float64, 0, (to-from)*hist.Cols)
	for i := from; i < to; i++ {
		out = append(out, hist.Row(i)...)
	}
	return out
}

// lastWindow extracts the final lag rows of recent as a flattened vector.
func lastWindow(recent *mat.Matrix, lag int) ([]float64, error) {
	if recent.Rows < lag {
		return nil, fmt.Errorf("%w: recent has %d rows, need %d", ErrInsufficientData, recent.Rows, lag)
	}
	return flattenWindow(recent, recent.Rows-lag, recent.Rows), nil
}

// lastSequence extracts the final lag rows of recent as a sequence.
func lastSequence(recent *mat.Matrix, lag int) ([][]float64, error) {
	if recent.Rows < lag {
		return nil, fmt.Errorf("%w: recent has %d rows, need %d", ErrInsufficientData, recent.Rows, lag)
	}
	seq := make([][]float64, lag)
	for i := 0; i < lag; i++ {
		seq[i] = append([]float64(nil), recent.Row(recent.Rows-lag+i)...)
	}
	return seq, nil
}

// Properties describes a model family along the three axes of Table 3.
type Properties struct {
	Linear bool
	Memory bool
	Kernel bool
}

// ModelProperties reproduces Table 3 of the paper.
func ModelProperties() map[string]Properties {
	return map[string]Properties{
		"LR":    {Linear: true},
		"ARMA":  {Linear: true, Memory: true},
		"KR":    {Kernel: true},
		"RNN":   {Memory: true},
		"FNN":   {},
		"PSRNN": {Memory: true, Kernel: true},
	}
}
