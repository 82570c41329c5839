package forecast

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qb5000/internal/mat"
)

// fitGolden fits the neural model families on fixed seeded histories and
// renders every prediction's bits, plus the RNN's TrainedEpochs, one line per
// model and window.
func fitGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	cases := []struct {
		name string
		hist *mat.Matrix
		cfg  Config
	}{
		{"periodic", periodicMatrix(24*10, 3, 0.05, 11), Config{Lag: 24, Horizon: 2, Outputs: 3, Seed: 5, Epochs: 8}},
		{"drift", driftMatrix(24*9, 13), Config{Lag: 12, Horizon: 1, Outputs: 1, Seed: 21, Epochs: 40}},
	}
	for _, c := range cases {
		for _, name := range []string{"RNN", "FNN", "ENSEMBLE", "HYBRID"} {
			m, err := NewByName(name, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Fit(c.hist); err != nil {
				t.Fatalf("%s/%s fit: %v", c.name, name, err)
			}
			if hy, ok := m.(*Hybrid); ok {
				if err := hy.FitSpike(c.hist); err != nil {
					t.Fatalf("%s/%s FitSpike: %v", c.name, name, err)
				}
			}
			if epochs := trainedEpochs(m); epochs >= 0 {
				fmt.Fprintf(&b, "%s %s epochs %d\n", c.name, name, epochs)
			}
			// Three recent windows: the whole history and two earlier cuts.
			for _, end := range []int{c.hist.Rows, c.hist.Rows - 7, c.hist.Rows - 30} {
				recent := &mat.Matrix{Rows: end, Cols: c.hist.Cols, Data: c.hist.Data[:end*c.hist.Cols]}
				pred, err := m.Predict(recent)
				if err != nil {
					t.Fatalf("%s/%s predict: %v", c.name, name, err)
				}
				fmt.Fprintf(&b, "%s %s end %d", c.name, name, end)
				for _, v := range pred {
					fmt.Fprintf(&b, " %016x", math.Float64bits(v))
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// trainedEpochs finds the RNN inside m, or returns -1 when there is none.
func trainedEpochs(m Model) int {
	switch v := m.(type) {
	case *RNN:
		return v.TrainedEpochs
	case *Ensemble:
		for _, sub := range v.Models() {
			if n := trainedEpochs(sub); n >= 0 {
				return n
			}
		}
	case *Hybrid:
		return trainedEpochs(v.ensemble)
	}
	return -1
}

// TestNeuralFitGolden pins every trained bit of the RNN, FNN, ENSEMBLE and
// HYBRID fits. testdata/fit.golden was written before the LSTM kernel and
// its scratch were rewritten for speed, so a difference means a kernel
// change moved a floating-point sum, not a new baseline to accept.
func TestNeuralFitGolden(t *testing.T) {
	if fmaFusable {
		t.Skip("golden recorded on amd64 at GOAMD64=v1; this build may fuse s += a*b into one FMA, which moves the last bit")
	}
	got := fitGolden(t)
	path := filepath.Join("testdata", "fit.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diffGolden(t, got, string(want))
}

// diffGolden reports the first line where got and want part.
func diffGolden(t *testing.T, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("golden differs at line %d:\n got  %s\n want %s", i+1, gl, wl)
		}
	}
}
