package nn

import "math/rand"

// Dense is a fully-connected layer y = W·x + b.
type Dense struct {
	In, Out int
	W       *Param // Out x In, row-major
	B       *Param // Out
}

// NewDense creates a Glorot-initialized dense layer.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	d := &Dense{In: in, Out: out, W: NewParam(in * out), B: NewParam(out)}
	d.W.InitXavier(rng, in, out)
	return d
}

// Forward computes the layer output for x.
func (d *Dense) Forward(x []float64) []float64 {
	y := make([]float64, d.Out)
	for o := 0; o < d.Out; o++ {
		s := d.B.W[o]
		row := d.W.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			s += row[i] * xi
		}
		y[o] = s
	}
	return y
}

// Backward accumulates parameter gradients for the forward pass that
// consumed x and produced dy upstream gradient, returning dx.
func (d *Dense) Backward(x, dy []float64) []float64 {
	dx := make([]float64, d.In)
	for o := 0; o < d.Out; o++ {
		g := dy[o]
		if g == 0 {
			continue
		}
		d.B.G[o] += g
		row := d.W.W[o*d.In : (o+1)*d.In]
		grow := d.W.G[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			grow[i] += g * xi
			dx[i] += g * row[i]
		}
	}
	return dx
}

// Params returns the layer's trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// NumWeights reports the weight count, used for model-size accounting
// (Table 4).
func (d *Dense) NumWeights() int { return len(d.W.W) + len(d.B.W) }
