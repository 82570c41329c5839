package forecast

import (
	"fmt"

	"qb5000/internal/mat"
	"qb5000/internal/timeseries"
)

// Ensemble averages the predictions of its component models with equal
// weights. QB5000's deployed ENSEMBLE combines LR and RNN (§6.1); the paper
// found weighted averaging overfit, so the weights stay uniform.
type Ensemble struct {
	models []Model
}

// NewEnsemble combines the given fitted-or-unfitted models.
func NewEnsemble(models ...Model) (*Ensemble, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("forecast: ensemble needs at least one model")
	}
	return &Ensemble{models: models}, nil
}

// NewDefaultEnsemble builds the paper's LR+RNN ensemble for cfg.
func NewDefaultEnsemble(cfg Config) (*Ensemble, error) {
	lr, err := NewLR(cfg, 0)
	if err != nil {
		return nil, err
	}
	rnn, err := NewRNN(cfg, 0, nil)
	if err != nil {
		return nil, err
	}
	return NewEnsemble(lr, rnn)
}

// Name implements Model.
func (m *Ensemble) Name() string { return "ENSEMBLE" }

// Models exposes the component models.
func (m *Ensemble) Models() []Model { return m.models }

// Fit implements Model by fitting every component.
func (m *Ensemble) Fit(hist *mat.Matrix) error {
	for _, sub := range m.models {
		if err := sub.Fit(hist); err != nil {
			return fmt.Errorf("forecast: ensemble component %s: %w", sub.Name(), err)
		}
	}
	return nil
}

// Predict implements Model: the equal-weight average of component
// predictions.
func (m *Ensemble) Predict(recent *mat.Matrix) ([]float64, error) {
	var sum []float64
	for _, sub := range m.models {
		p, err := sub.Predict(recent)
		if err != nil {
			return nil, fmt.Errorf("forecast: ensemble component %s: %w", sub.Name(), err)
		}
		if sum == nil {
			sum = make([]float64, len(p))
		}
		for i, v := range p {
			sum[i] += v
		}
	}
	inv := 1 / float64(len(m.models))
	for i := range sum {
		sum[i] *= inv
	}
	return sum, nil
}

// SizeBytes implements Model.
func (m *Ensemble) SizeBytes() int {
	n := 0
	for _, sub := range m.models {
		n += sub.SizeBytes()
	}
	return n
}

// DefaultGamma is the spike-override threshold γ the paper settles on
// (150 %, Appendix C).
const DefaultGamma = 1.5

// Hybrid is QB5000's deployed forecaster (§6.1): ENSEMBLE for ordinary
// prediction, overridden by kernel regression when KR foresees a volume
// spike. KR trains on the *entire* history aggregated to one-hour intervals
// (§6.2) so that spikes repeating across years remain in kernel range,
// while ENSEMBLE trains on the recent fine-grained history.
//
// Decision rule: if KR's predicted volume exceeds ENSEMBLE's by more than
// γ (in linear space, per cluster), the KR prediction wins.
type Hybrid struct {
	ensemble *Ensemble
	kr       *KR
	gamma    float64
	// spikeHist is the full hourly history the KR model consumes; Predict
	// needs its tail as the KR input window.
	spikeHist *mat.Matrix
	krLag     int
}

// NewHybrid wires an ensemble with a spike KR model. gamma ≤ 0 selects the
// paper's default of 1.5 (150 %).
func NewHybrid(ensemble *Ensemble, kr *KR, gamma float64) (*Hybrid, error) {
	if ensemble == nil || kr == nil {
		return nil, fmt.Errorf("forecast: hybrid needs both models")
	}
	if gamma <= 0 {
		gamma = DefaultGamma
	}
	return &Hybrid{ensemble: ensemble, kr: kr, gamma: gamma, krLag: kr.cfg.Lag}, nil
}

// Name implements Model.
func (m *Hybrid) Name() string { return "HYBRID" }

// Fit trains the ensemble on the recent history. The KR spike model is
// trained separately via FitSpike because it consumes a different (full,
// hourly) view of the workload.
func (m *Hybrid) Fit(hist *mat.Matrix) error {
	return m.ensemble.Fit(hist)
}

// FitSpike trains the KR component on the full hourly history.
func (m *Hybrid) FitSpike(fullHourly *mat.Matrix) error {
	if err := m.kr.Fit(fullHourly); err != nil {
		return fmt.Errorf("forecast: hybrid KR: %w", err)
	}
	m.spikeHist = fullHourly
	return nil
}

// Predict implements Model over the recent window; the KR override uses the
// tail of the full hourly history provided to FitSpike. Per §6.1 the rule
// compares the total predicted workload volume (in linear query-count
// space): when KR foresees more than (1+γ)× the ensemble's volume, the KR
// prediction replaces the ensemble's.
func (m *Hybrid) Predict(recent *mat.Matrix) ([]float64, error) {
	ens, err := m.ensemble.Predict(recent)
	if err != nil {
		return nil, err
	}
	if m.spikeHist == nil {
		return ens, nil
	}
	spike, err := m.kr.Predict(m.spikeHist)
	if err != nil {
		return nil, err
	}
	if SpikeOverride(ens, spike, m.gamma) {
		return spike, nil
	}
	return ens, nil
}

// SpikeOverride decides the HYBRID rule: it returns true when the KR
// prediction's total linear-space volume exceeds the ensemble's by more
// than gamma.
func SpikeOverride(ens, spike []float64, gamma float64) bool {
	var ev, kv float64
	for _, v := range ens {
		ev += timeseries.Expm1Clamped(v)
	}
	for _, v := range spike {
		kv += timeseries.Expm1Clamped(v)
	}
	return kv > ev*(1+gamma)
}

// SizeBytes implements Model.
func (m *Hybrid) SizeBytes() int { return m.ensemble.SizeBytes() + m.kr.SizeBytes() }
