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

// Forward writes the layer output for x into y (Out values) and returns y.
func (d *Dense) Forward(y, x []float64) []float64 {
	y = y[:d.Out]
	for o := range y {
		s := d.B.W[o]
		row := d.W.W[o*d.In : (o+1)*d.In][:len(x)]
		for i, xi := range x {
			s += row[i] * xi
		}
		y[o] = s
	}
	return y
}

// Backward accumulates parameter gradients for the forward pass that
// consumed x, given the upstream gradient dy. A non-nil dx (In values) is
// overwritten with the gradient w.r.t. x; a nil dx skips that product.
func (d *Dense) Backward(dx, x, dy []float64) {
	if dx != nil {
		dx = dx[:len(x)]
		clear(dx)
	}
	for o := 0; o < d.Out; o++ {
		g := dy[o]
		if g == 0 {
			continue
		}
		d.B.G[o] += g
		grow := d.W.G[o*d.In : (o+1)*d.In][:len(x)]
		if dx == nil {
			for i, xi := range x {
				grow[i] += g * xi
			}
			continue
		}
		row := d.W.W[o*d.In : (o+1)*d.In][:len(x)]
		for i, xi := range x {
			grow[i] += g * xi
			dx[i] += g * row[i]
		}
	}
}

// Params returns the layer's trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// NumWeights reports the weight count, used for model-size accounting
// (Table 4).
func (d *Dense) NumWeights() int { return len(d.W.W) + len(d.B.W) }
