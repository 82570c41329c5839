package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numericalGrad estimates dLoss/dw for one weight by central differences.
func numericalGrad(w *float64, loss func() float64) float64 {
	const eps = 1e-6
	orig := *w
	*w = orig + eps
	up := loss()
	*w = orig - eps
	down := loss()
	*w = orig
	return (up - down) / (2 * eps)
}

func TestDenseForward(t *testing.T) {
	d := &Dense{In: 2, Out: 1, W: NewParam(2), B: NewParam(1)}
	d.W.W[0], d.W.W[1], d.B.W[0] = 2, 3, 1
	got := d.Forward(make([]float64, 1), []float64{4, 5})
	if got[0] != 2*4+3*5+1 {
		t.Fatalf("Forward = %v", got)
	}
}

func TestDenseGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 3, 2)
	x := []float64{0.5, -1.2, 0.3}
	target := []float64{1, -1}

	loss := func() float64 {
		y := d.Forward(make([]float64, d.Out), x)
		var l float64
		for i := range y {
			diff := y[i] - target[i]
			l += diff * diff
		}
		return l
	}

	// Analytic gradients.
	y := d.Forward(make([]float64, d.Out), x)
	dy := make([]float64, len(y))
	for i := range y {
		dy[i] = 2 * (y[i] - target[i])
	}
	dx := make([]float64, d.In)
	d.Backward(dx, x, dy)

	for i := range d.W.W {
		want := numericalGrad(&d.W.W[i], loss)
		if math.Abs(d.W.G[i]-want) > 1e-5 {
			t.Fatalf("dW[%d] = %v, numerical %v", i, d.W.G[i], want)
		}
	}
	for i := range d.B.W {
		want := numericalGrad(&d.B.W[i], loss)
		if math.Abs(d.B.G[i]-want) > 1e-5 {
			t.Fatalf("dB[%d] = %v, numerical %v", i, d.B.G[i], want)
		}
	}
	// Input gradient via perturbation.
	for i := range x {
		want := numericalGrad(&x[i], loss)
		if math.Abs(dx[i]-want) > 1e-5 {
			t.Fatalf("dx[%d] = %v, numerical %v", i, dx[i], want)
		}
	}
}

func TestLSTMGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLSTM(rng, 2, 3)
	xs := [][]float64{{0.4, -0.2}, {0.1, 0.9}, {-0.5, 0.3}}
	target := []float64{0.2, -0.1, 0.4}

	a := arena(make([]float64, (len(xs)+1)*l.cacheFloats()))
	zero := make([]float64, l.Hidden)
	caches := make([]lstmCache, len(xs))
	for i := range caches {
		caches[i] = l.newCache(&a)
	}
	run := func() []float64 {
		h, c := zero, zero
		for i, x := range xs {
			l.Step(&caches[i], x, h, c)
			h, c = caches[i].h, caches[i].c
		}
		return h
	}
	loss := func() float64 {
		var lv float64
		for i, h := range run() {
			d := h - target[i]
			lv += d * d
		}
		return lv
	}

	// Analytic: forward with caches, backward through time.
	dH := make([]float64, l.Hidden)
	dC := make([]float64, l.Hidden)
	for i, h := range run() {
		dH[i] = 2 * (h - target[i])
	}
	dx := make([]float64, l.In)
	dHPrev := make([]float64, l.Hidden)
	dCPrev := make([]float64, l.Hidden)
	for i := len(xs) - 1; i >= 0; i-- {
		l.StepBackward(&caches[i], dH, dC, dx, dHPrev, dCPrev)
		dH, dHPrev = dHPrev, dH
		dC, dCPrev = dCPrev, dC
	}

	for i := range l.W.W {
		want := numericalGrad(&l.W.W[i], loss)
		if math.Abs(l.W.G[i]-want) > 1e-4 {
			t.Fatalf("dW[%d] = %v, numerical %v", i, l.W.G[i], want)
		}
	}
	for i := range l.B.W {
		want := numericalGrad(&l.B.W[i], loss)
		if math.Abs(l.B.G[i]-want) > 1e-4 {
			t.Fatalf("dB[%d] = %v, numerical %v", i, l.B.G[i], want)
		}
	}
}

func TestLSTMNetGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewLSTMNet(rng, 2, 4, []int{3, 3}, 2)
	seq := [][]float64{{0.1, 0.2}, {-0.3, 0.4}, {0.5, -0.6}}
	target := []float64{0.7, -0.2}

	loss := func() float64 {
		y := net.Predict(seq)
		var l float64
		for i := range y {
			d := y[i] - target[i]
			l += d * d
		}
		return l / float64(len(y)) // TrainBatch normalizes by outputs*batch
	}

	NewLSTMTrainer(net).TrainBatch([][][]float64{seq}, [][]float64{target})
	params := net.Params()
	for pi, p := range params {
		for i := range p.W {
			want := numericalGrad(&p.W[i], loss)
			if math.Abs(p.G[i]-want) > 1e-4 {
				t.Fatalf("param %d weight %d: grad %v, numerical %v", pi, i, p.G[i], want)
			}
		}
	}
}

func TestMLPGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMLP(rng, 3, 4, 2)
	x := []float64{0.3, -0.7, 0.2}
	target := []float64{0.1, 0.9}

	loss := func() float64 {
		y := m.Forward(x)
		var l float64
		for i := range y {
			d := y[i] - target[i]
			l += d * d
		}
		return l / float64(len(y)) // TrainBatch normalizes by outputs*batch
	}

	NewMLPTrainer(m).TrainBatch([][]float64{x}, [][]float64{target})
	for pi, p := range m.Params() {
		for i := range p.W {
			want := numericalGrad(&p.W[i], loss)
			if math.Abs(p.G[i]-want) > 1e-4 {
				t.Fatalf("param %d weight %d: grad %v, numerical %v", pi, i, p.G[i], want)
			}
		}
	}
}

func TestAdamReducesLossOnToyProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP(rng, 1, 8, 1)
	opt := NewAdam(0.02, m.Params())
	tr := NewMLPTrainer(m)
	// Learn y = sin-ish bump via samples of y = x².
	xs := make([][]float64, 64)
	ys := make([][]float64, 64)
	for i := range xs {
		x := float64(i)/32 - 1
		xs[i] = []float64{x}
		ys[i] = []float64{x * x}
	}
	first := tr.TrainBatch(xs, ys)
	opt.Step()
	var last float64
	for e := 0; e < 300; e++ {
		last = tr.TrainBatch(xs, ys)
		opt.Step()
	}
	if last > first/10 {
		t.Fatalf("Adam failed to reduce loss: first %v, last %v", first, last)
	}
}

func TestLSTMNetLearnsAlternatingSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewLSTMNet(rng, 1, 6, []int{8}, 1)
	opt := NewAdam(0.02, net.Params())
	tr := NewLSTMTrainer(net)
	// Predict the next value of an alternating ±1 sequence: requires
	// remembering the last input's sign.
	var seqs [][][]float64
	var targets [][]float64
	for s := 0; s < 16; s++ {
		seq := make([][]float64, 6)
		sign := 1.0
		if s%2 == 1 {
			sign = -1
		}
		for i := range seq {
			seq[i] = []float64{sign}
			sign = -sign
		}
		seqs = append(seqs, seq)
		targets = append(targets, []float64{sign})
	}
	var last float64
	for e := 0; e < 200; e++ {
		last = tr.TrainBatch(seqs, targets)
		opt.Step()
	}
	if last > 0.05 {
		t.Fatalf("LSTM failed to learn alternation: loss %v", last)
	}
	pred := net.Predict(seqs[0])
	if math.Abs(pred[0]-targets[0][0]) > 0.5 {
		t.Fatalf("prediction %v, want %v", pred[0], targets[0][0])
	}
}

func TestAdamGradientClipping(t *testing.T) {
	p := NewParam(2)
	p.G[0], p.G[1] = 3e3, 4e3 // norm 5000
	opt := NewAdam(0.1, []*Param{p})
	opt.Clip = 5
	opt.Step()
	// After clipping the norm to 5 and one Adam step, weights move by at
	// most ~lr in each coordinate.
	for i, w := range p.W {
		if math.Abs(w) > 0.2 {
			t.Fatalf("weight %d moved too far: %v", i, w)
		}
	}
	// Gradients are cleared after the step.
	if p.G[0] != 0 || p.G[1] != 0 {
		t.Fatal("gradients not cleared")
	}
}

func TestParamInit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewParam(1000)
	p.InitXavier(rng, 10, 10)
	bound := math.Sqrt(6.0 / 20)
	for _, w := range p.W {
		if w < -bound || w > bound {
			t.Fatalf("weight %v outside Xavier bound %v", w, bound)
		}
	}
	var nonZero int
	for _, w := range p.W {
		if w != 0 {
			nonZero++
		}
	}
	if nonZero < 900 {
		t.Fatal("initialization left too many zeros")
	}
}

// TestTrainBatchParallelMatchesSerial: the data-parallel split of a batch
// agrees with one serial pass over it up to floating-point association in
// the gradient sums. TestTrainGolden pins the bits.
func TestTrainBatchParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	build := func() *LSTMNet { return NewLSTMNet(rand.New(rand.NewSource(20)), 2, 4, []int{5}, 2) }
	var seqs [][][]float64
	var targets [][]float64
	for s := 0; s < 16; s++ {
		seq := make([][]float64, 5)
		for i := range seq {
			seq[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		seqs = append(seqs, seq)
		targets = append(targets, []float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	serial, parallel := build(), build()
	l1 := NewLSTMTrainer(serial).serial.trainBatch(seqs, targets)
	l2 := NewLSTMTrainer(parallel).TrainBatch(seqs, targets)
	if math.Abs(l1-l2) > 1e-9*(1+math.Abs(l1)) {
		t.Fatalf("loss mismatch: %v vs %v", l1, l2)
	}
	sp, pp := serial.Params(), parallel.Params()
	for pi := range sp {
		for i := range sp[pi].G {
			if math.Abs(sp[pi].G[i]-pp[pi].G[i]) > 1e-9*(1+math.Abs(sp[pi].G[i])) {
				t.Fatalf("param %d grad %d: %v vs %v", pi, i, sp[pi].G[i], pp[pi].G[i])
			}
		}
	}
}

// TestTrainBatchParallelDeterministic: two data-parallel passes over the
// same batch give the same bits in every gradient.
func TestTrainBatchParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var seqs [][][]float64
	var targets [][]float64
	for s := 0; s < 24; s++ {
		seq := make([][]float64, 4)
		for i := range seq {
			seq[i] = []float64{rng.NormFloat64()}
		}
		seqs = append(seqs, seq)
		targets = append(targets, []float64{rng.NormFloat64()})
	}
	run := func() []*Param {
		net := NewLSTMNet(rand.New(rand.NewSource(40)), 1, 3, []int{4}, 1)
		NewLSTMTrainer(net).TrainBatch(seqs, targets)
		return net.Params()
	}
	a, b := run(), run()
	for pi := range a {
		for i := range a[pi].G {
			if math.Float64bits(a[pi].G[i]) != math.Float64bits(b[pi].G[i]) {
				t.Fatalf("param %d grad %d: %v vs %v", pi, i, a[pi].G[i], b[pi].G[i])
			}
		}
	}
}

// TestLSTMNetPredictAllocs: a prediction allocates its scratch once per
// call — not once per step — so the count does not grow with the sequence.
func TestLSTMNetPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	net := NewLSTMNet(rand.New(rand.NewSource(8)), 3, 25, []int{20, 20}, 3)
	seq := func(n int) [][]float64 {
		s := make([][]float64, n)
		for i := range s {
			s[i] = []float64{0.1 * float64(i), -0.2, 0.3}
		}
		return s
	}
	short, long := seq(2), seq(48)
	for _, s := range [][][]float64{short, long} {
		allocs := testing.AllocsPerRun(50, func() { net.Predict(s) })
		if allocs > 2 {
			t.Errorf("Predict over %d steps allocated %.0f times, want ≤2", len(s), allocs)
		}
	}
}
