package nn

import (
	"math"
	"math/rand"
)

// MLP is a feed-forward network with tanh hidden activations and a linear
// output layer — the FNN baseline from the paper's evaluation (§7.2).
type MLP struct {
	Layers []*Dense
}

// NewMLP builds a network with the given layer sizes, e.g.
// NewMLP(rng, 24, 32, 3) is 24 → 32(tanh) → 3(linear).
func NewMLP(rng *rand.Rand, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewDense(rng, sizes[i], sizes[i+1]))
	}
	return m
}

// Forward runs the network on x. It allocates its activations on every
// call, so concurrent readers may share a fitted network.
func (m *MLP) Forward(x []float64) []float64 {
	return m.forward(m.activations(), x)
}

// activations carves one output buffer per layer from a single allocation.
func (m *MLP) activations() [][]float64 {
	size := 0
	for _, l := range m.Layers {
		size += l.Out
	}
	a := arena(make([]float64, size))
	acts := make([][]float64, len(m.Layers))
	for i, l := range m.Layers {
		acts[i] = a.take(l.Out)
	}
	return acts
}

// forward writes every layer's output (tanh-activated for hidden layers)
// into acts and returns the last.
func (m *MLP) forward(acts [][]float64, x []float64) []float64 {
	cur := x
	for i, l := range m.Layers {
		cur = l.Forward(acts[i], cur)
		if i+1 < len(m.Layers) { // hidden activation
			for j, v := range cur {
				cur[j] = math.Tanh(v)
			}
		}
	}
	return cur
}

// MLPTrainer accumulates an MLP's mean-squared-error gradients batch by
// batch. Like LSTMTrainer it owns the activation and gradient scratch,
// carved once and reused across samples, batches and epochs.
type MLPTrainer struct {
	m    *MLP
	acts [][]float64 // [layer]: the layer's output
	// grads[i] is the gradient w.r.t. layer i's output; grads[len-1] is the
	// readout's.
	grads [][]float64
}

// NewMLPTrainer prepares to train m.
func NewMLPTrainer(m *MLP) *MLPTrainer {
	return &MLPTrainer{m: m, acts: m.activations(), grads: m.activations()}
}

// TrainBatch accumulates gradients of the mean squared error over the batch
// and returns the batch loss. Callers step the optimizer afterwards.
func (t *MLPTrainer) TrainBatch(xs, ys [][]float64) float64 {
	layers := t.m.Layers
	top := len(layers) - 1
	var loss float64
	for n, x := range xs {
		pred := t.m.forward(t.acts, x)
		target := ys[n]
		dy := t.grads[top]
		for i, p := range pred {
			d := p - target[i]
			loss += d * d
			dy[i] = 2 * d / float64(len(pred)*len(xs))
		}
		for i := top; i > 0; i-- {
			// The input of layer i is layer i-1's tanh output.
			in, dx := t.acts[i-1], t.grads[i-1]
			layers[i].Backward(dx, in, t.grads[i])
			for j, a := range in {
				dx[j] *= 1 - a*a
			}
		}
		layers[0].Backward(nil, x, t.grads[0])
	}
	return loss / float64(len(xs))
}

// Params returns all trainable parameters.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumWeights reports the total weight count.
func (m *MLP) NumWeights() int {
	n := 0
	for _, l := range m.Layers {
		n += l.NumWeights()
	}
	return n
}
