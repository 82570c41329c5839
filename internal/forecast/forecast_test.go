package forecast

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"qb5000/internal/mat"
)

// periodicMatrix builds a T×k history where each column is a noisy-free
// sinusoid with period 24 plus a column-specific offset, in "log space".
func periodicMatrix(rows, cols int, noise float64, seed int64) *mat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := mat.New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := 3 + float64(j) + 2*math.Sin(2*math.Pi*float64(i)/24)
			if noise > 0 {
				v += noise * rng.NormFloat64()
			}
			m.Set(i, j, v)
		}
	}
	return m
}

func cfgFor(cols, horizon int) Config {
	return Config{Lag: 24, Horizon: horizon, Outputs: cols, Seed: 1, Epochs: 20}
}

// evalModel fits on the first 3/4 and returns test MSE.
func evalModel(t *testing.T, m Model, hist *mat.Matrix, lag, horizon int) float64 {
	t.Helper()
	trainRows := hist.Rows * 3 / 4
	train := &mat.Matrix{Rows: trainRows, Cols: hist.Cols, Data: hist.Data[:trainRows*hist.Cols]}
	if err := m.Fit(train); err != nil {
		t.Fatalf("%s fit: %v", m.Name(), err)
	}
	var sq float64
	n := 0
	for ts := trainRows; ts+horizon <= hist.Rows; ts++ {
		recent := &mat.Matrix{Rows: lag, Cols: hist.Cols, Data: hist.Data[(ts-lag)*hist.Cols : ts*hist.Cols]}
		pred, err := m.Predict(recent)
		if err != nil {
			t.Fatalf("%s predict: %v", m.Name(), err)
		}
		actual := hist.Row(ts + horizon - 1)
		for j := range pred {
			d := pred[j] - actual[j]
			sq += d * d
		}
		n += hist.Cols
	}
	return sq / float64(n)
}

func TestModelsLearnPeriodicSignal(t *testing.T) {
	hist := periodicMatrix(24*14, 2, 0.05, 3)
	cases := []struct {
		name      string
		threshold float64
	}{
		{"LR", 0.02},
		{"KR", 0.3},
		{"ARMA", 0.2},
		{"FNN", 0.3},
		{"RNN", 0.5},
		{"PSRNN", 0.6},
		{"ENSEMBLE", 0.3},
	}
	for _, c := range cases {
		m, err := NewByName(c.name, cfgFor(2, 1))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		mse := evalModel(t, m, hist, 24, 1)
		if mse > c.threshold {
			t.Errorf("%s: MSE %v exceeds %v on clean periodic signal", c.name, mse, c.threshold)
		}
	}
}

func TestLRExactOnLinearSignal(t *testing.T) {
	// A pure AR(1) signal y[t] = 0.9*y[t-1] is inside LR's hypothesis class.
	hist := mat.New(300, 1)
	v := 5.0
	for i := 0; i < 300; i++ {
		hist.Set(i, 0, v)
		v = 0.9*v + 0.5
	}
	lr, err := NewLR(Config{Lag: 4, Horizon: 1, Outputs: 1, Seed: 1}, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	mse := evalModel(t, lr, hist, 4, 1)
	if mse > 1e-6 {
		t.Fatalf("LR should nail a linear recurrence, got MSE %v", mse)
	}
}

func TestPredictBeforeFit(t *testing.T) {
	for _, name := range []string{"LR", "KR", "ARMA", "FNN", "RNN", "PSRNN"} {
		m, err := NewByName(name, cfgFor(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Predict(mat.New(24, 1)); !errors.Is(err, ErrNotFitted) {
			t.Errorf("%s: Predict before Fit = %v, want ErrNotFitted", name, err)
		}
	}
}

func TestInsufficientData(t *testing.T) {
	for _, name := range []string{"LR", "KR", "FNN", "RNN"} {
		m, err := NewByName(name, cfgFor(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(mat.New(5, 1)); !errors.Is(err, ErrInsufficientData) {
			t.Errorf("%s: Fit on tiny history = %v, want ErrInsufficientData", name, err)
		}
	}
}

func TestWrongColumnCount(t *testing.T) {
	m, _ := NewLR(cfgFor(2, 1), 0)
	if err := m.Fit(periodicMatrix(100, 3, 0, 1)); err == nil {
		t.Fatal("expected column-count error")
	}
}

func TestShortRecentWindow(t *testing.T) {
	hist := periodicMatrix(24*10, 1, 0, 2)
	m, _ := NewLR(cfgFor(1, 1), 0)
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(mat.New(3, 1)); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("short window error = %v", err)
	}
}

func TestEnsembleAveragesComponents(t *testing.T) {
	hist := periodicMatrix(24*10, 1, 0, 4)
	a, _ := NewLR(cfgFor(1, 1), 0)
	b, _ := NewKR(cfgFor(1, 1), 0)
	ens, err := NewEnsemble(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := ens.Fit(hist); err != nil {
		t.Fatal(err)
	}
	recent := &mat.Matrix{Rows: 24, Cols: 1, Data: hist.Data[(hist.Rows-24)*1:]}
	pa, _ := a.Predict(recent)
	pb, _ := b.Predict(recent)
	pe, err := ens.Predict(recent)
	if err != nil {
		t.Fatal(err)
	}
	want := (pa[0] + pb[0]) / 2
	if math.Abs(pe[0]-want) > 1e-12 {
		t.Fatalf("ensemble = %v, want %v", pe[0], want)
	}
	if _, err := NewEnsemble(); err == nil {
		t.Fatal("empty ensemble must error")
	}
}

func TestSpikeOverride(t *testing.T) {
	ens := []float64{math.Log(101)} // ~100 in linear space
	spikeLow := []float64{math.Log(201)}
	spikeHigh := []float64{math.Log(300)}
	if SpikeOverride(ens, spikeLow, 1.5) {
		t.Fatal("2x should not trip a 150% threshold")
	}
	if !SpikeOverride(ens, spikeHigh, 1.5) {
		t.Fatal("3x should trip a 150% threshold")
	}
}

func TestHybridUsesKROnSpikes(t *testing.T) {
	// History with a repeating spike every 96 steps; ENSEMBLE trained on a
	// short window cannot see it, KR trained on everything can.
	rows := 96 * 8
	hist := mat.New(rows, 1)
	for i := 0; i < rows; i++ {
		v := 2 + math.Sin(2*math.Pi*float64(i)/24)
		if i%96 >= 90 { // periodic spike
			v = 9
		}
		hist.Set(i, 0, v)
	}
	cfg := Config{Lag: 24, Horizon: 6, Outputs: 1, Seed: 1, Epochs: 4}
	hy, err := NewByName("HYBRID", cfg)
	if err != nil {
		t.Fatal(err)
	}
	hybrid := hy.(*Hybrid)
	trainRows := 96 * 7
	train := &mat.Matrix{Rows: trainRows, Cols: 1, Data: hist.Data[:trainRows]}
	if err := hybrid.Fit(train); err != nil {
		t.Fatal(err)
	}
	// The spike model sees history up to the prediction point: its input
	// window ends at row 96*7+86, so the horizon-6 target (row 96*7+91)
	// falls inside the 8th spike.
	spikeEnd := trainRows + 86
	upToNow := &mat.Matrix{Rows: spikeEnd, Cols: 1, Data: hist.Data[:spikeEnd]}
	if err := hybrid.FitSpike(upToNow); err != nil {
		t.Fatal(err)
	}
	pred, err := hybrid.Predict(upToNow)
	if err != nil {
		t.Fatal(err)
	}
	if pred[0] < 4 {
		t.Fatalf("hybrid failed to predict the periodic spike: %v", pred[0])
	}
	// Away from the spike (window ending mid-cycle) the ensemble's normal
	// prediction must win: no absurd spike forecast.
	calmEnd := trainRows + 30
	calm := &mat.Matrix{Rows: calmEnd, Cols: 1, Data: hist.Data[:calmEnd]}
	if err := hybrid.FitSpike(calm); err != nil {
		t.Fatal(err)
	}
	calmPred, err := hybrid.Predict(calm)
	if err != nil {
		t.Fatal(err)
	}
	if calmPred[0] > 5 {
		t.Fatalf("hybrid predicted a spike in a calm period: %v", calmPred[0])
	}
}

func TestStandardizerRoundTrip(t *testing.T) {
	hist := periodicMatrix(100, 3, 0.5, 9)
	s := fitStandardizer(hist)
	z := s.apply(hist)
	// Standardized data has ~zero mean, ~unit std per column.
	for j := 0; j < 3; j++ {
		var mean float64
		for i := 0; i < z.Rows; i++ {
			mean += z.At(i, j)
		}
		mean /= float64(z.Rows)
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("col %d mean %v", j, mean)
		}
	}
	back := s.invert(z.Row(0))
	for j := range back {
		if math.Abs(back[j]-hist.At(0, j)) > 1e-9 {
			t.Fatalf("invert mismatch: %v vs %v", back[j], hist.At(0, j))
		}
	}
}

func TestWindowsShape(t *testing.T) {
	hist := periodicMatrix(40, 2, 0, 1)
	xs, ys, err := windows(hist, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantN := 40 - 10 - 3 + 1
	if len(xs) != wantN || len(ys) != wantN {
		t.Fatalf("windows: %d, want %d", len(xs), wantN)
	}
	if len(xs[0]) != 20 || len(ys[0]) != 2 {
		t.Fatalf("window dims: %d, %d", len(xs[0]), len(ys[0]))
	}
	// First target is row lag+horizon-1.
	if ys[0][0] != hist.At(12, 0) {
		t.Fatal("target misaligned")
	}
	if _, _, err := windows(hist, 39, 3); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("err = %v", err)
	}
}

func TestNewByNameUnknown(t *testing.T) {
	if _, err := NewByName("NOPE", cfgFor(1, 1)); err == nil {
		t.Fatal("expected unknown-model error")
	}
	for _, name := range ModelNames {
		if _, err := NewByName(name, cfgFor(1, 1)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestModelProperties(t *testing.T) {
	props := ModelProperties()
	if !props["LR"].Linear || props["LR"].Memory {
		t.Fatal("LR properties wrong")
	}
	if !props["PSRNN"].Memory || !props["PSRNN"].Kernel {
		t.Fatal("PSRNN properties wrong")
	}
	if len(props) != 6 {
		t.Fatalf("expected 6 base models, got %d", len(props))
	}
}

func TestSizeBytesNonZeroAfterFit(t *testing.T) {
	hist := periodicMatrix(24*8, 1, 0.01, 5)
	for _, name := range []string{"LR", "KR", "ARMA", "FNN", "RNN", "PSRNN"} {
		m, err := NewByName(name, Config{Lag: 24, Horizon: 1, Outputs: 1, Seed: 1, Epochs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if m.SizeBytes() != 0 {
			t.Errorf("%s: non-zero size before fit", name)
		}
		if err := m.Fit(hist); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.SizeBytes() == 0 {
			t.Errorf("%s: zero size after fit", name)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Lag: 0, Horizon: 1, Outputs: 1},
		{Lag: 1, Horizon: 0, Outputs: 1},
		{Lag: 1, Horizon: 1, Outputs: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %+v should fail validation", c)
		}
	}
}

func TestNamesAndSizes(t *testing.T) {
	cfg := cfgFor(1, 1)
	ens, err := NewDefaultEnsemble(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ens.Name() != "ENSEMBLE" || len(ens.Models()) != 2 {
		t.Fatalf("ensemble identity: %s / %d models", ens.Name(), len(ens.Models()))
	}
	hy, err := NewByName("HYBRID", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hy.Name() != "HYBRID" {
		t.Fatalf("hybrid name = %s", hy.Name())
	}
	arma, _ := NewARMA(cfg, 4, 1)
	if arma.Name() != "ARMA" {
		t.Fatal("arma name")
	}
	if _, err := NewARMA(cfg, 0, 1); err == nil {
		t.Fatal("ARMA p=0 accepted")
	}
	hist := periodicMatrix(24*10, 1, 0.02, 8)
	if err := ens.Fit(hist); err != nil {
		t.Fatal(err)
	}
	if ens.SizeBytes() == 0 {
		t.Fatal("ensemble size zero after fit")
	}
	hybrid := hy.(*Hybrid)
	if err := hybrid.Fit(hist); err != nil {
		t.Fatal(err)
	}
	if hybrid.SizeBytes() == 0 {
		t.Fatal("hybrid size zero after fit")
	}
}

func TestHybridFitSpike(t *testing.T) {
	cfg := Config{Lag: 12, Horizon: 2, Outputs: 1, Seed: 1, Epochs: 2}
	ens, _ := NewDefaultEnsemble(cfg)
	kr, _ := NewKR(Config{Lag: 12, Horizon: 2, Outputs: 1, Seed: 1}, 0)
	hy, err := NewHybrid(ens, kr, 0)
	if err != nil {
		t.Fatal(err)
	}
	hist := periodicMatrix(24*6, 1, 0.02, 6)
	if err := hy.Fit(hist); err != nil {
		t.Fatal(err)
	}
	if err := hy.FitSpike(hist); err != nil {
		t.Fatal(err)
	}
	if _, err := hy.Predict(hist); err != nil {
		t.Fatal(err)
	}
	if _, err := NewHybrid(nil, kr, 0); err == nil {
		t.Fatal("nil ensemble accepted")
	}
}

// TestRNNFitAllocs: one epoch of the RNN fit that BenchmarkRNNFitEpoch
// times — two weeks of hourly rows, three clusters, the paper's network —
// carves its training scratch once, so it makes a bounded number of
// allocations rather than several per timestep.
func TestRNNFitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	hist := periodicMatrix(24*14, 3, 0, 1)
	allocs := testing.AllocsPerRun(2, func() {
		m, err := NewRNN(Config{Lag: 24, Horizon: 1, Outputs: 3, Seed: 1, Epochs: 1}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(hist); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2000 {
		t.Errorf("one-epoch RNN fit allocated %.0f times, want ≤2000", allocs)
	}
}
