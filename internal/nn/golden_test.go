package nn

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// trainGolden runs four batches through a two-layer LSTM network, three of
// them wide enough for the data-parallel path and one on the serial path,
// each followed by an Adam step. It renders the loss and every gradient bit
// before each step and every weight bit after the last.
func trainGolden() string {
	rng := rand.New(rand.NewSource(60))
	const n, steps = 42, 5
	seqs := make([][][]float64, n)
	targets := make([][]float64, n)
	for s := range seqs {
		seqs[s] = make([][]float64, steps)
		for i := range seqs[s] {
			seqs[s][i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		targets[s] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	net := NewLSTMNet(rand.New(rand.NewSource(61)), 2, 3, []int{4, 3}, 2)
	opt := NewAdam(0.05, net.Params())
	tr := NewLSTMTrainer(net)
	var b strings.Builder
	writeBits := func(label string, vs []float64) {
		b.WriteString(label)
		for _, v := range vs {
			fmt.Fprintf(&b, " %016x", math.Float64bits(v))
		}
		b.WriteByte('\n')
	}
	from := 0
	for bi, size := range []int{9, 12, 16, 5} {
		loss := tr.TrainBatch(seqs[from:from+size], targets[from:from+size])
		from += size
		writeBits(fmt.Sprintf("batch %d loss", bi), []float64{loss})
		for pi, p := range net.Params() {
			writeBits(fmt.Sprintf("batch %d grad %d", bi, pi), p.G)
		}
		opt.Step()
	}
	for pi, p := range net.Params() {
		writeBits(fmt.Sprintf("weights %d", pi), p.W)
	}
	return b.String()
}

// TestTrainGolden pins every gradient and weight bit of a short training
// run. testdata/train.golden was written before the LSTM kernel and its
// scratch were rewritten for speed; a difference means the gate sums, the
// gradient accumulation order or the workers' weight refresh changed.
func TestTrainGolden(t *testing.T) {
	if fmaFusable {
		t.Skip("golden recorded on amd64 at GOAMD64=v1; this build may fuse s += a*b into one FMA, which moves the last bit")
	}
	got := trainGolden()
	path := filepath.Join("testdata", "train.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("golden differs at line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	t.Fatalf("golden has %d lines, want %d", len(g), len(w))
}
