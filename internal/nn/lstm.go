package nn

import (
	"math"
	"math/rand"
)

// LSTM is a single long short-term memory layer (Hochreiter & Schmidhuber
// 1997), the RNN variant QB5000 uses for its non-linear forecaster (§6.1).
// Gate order in the packed weight matrices is input, forget, cell, output.
type LSTM struct {
	In, Hidden int
	// W is (4*Hidden) x (In+Hidden) row-major: each gate row sees the
	// concatenated [x, hPrev].
	W *Param
	// B is 4*Hidden.
	B *Param
}

// NewLSTM creates an LSTM layer with Xavier-initialized weights and the
// forget-gate bias set to 1 (the standard trick that lets memory persist
// early in training).
func NewLSTM(rng *rand.Rand, in, hidden int) *LSTM {
	l := &LSTM{In: in, Hidden: hidden, W: NewParam(4 * hidden * (in + hidden)), B: NewParam(4 * hidden)}
	l.W.InitXavier(rng, in+hidden, hidden)
	for i := hidden; i < 2*hidden; i++ { // forget gate bias
		l.B.W[i] = 1
	}
	return l
}

// lstmCache holds one step's activations for BPTT and the state the step
// produced: c is the new cell state and h the new hidden state. x, hPrev and
// cPrev are views of the step's inputs.
type lstmCache struct {
	x, hPrev, cPrev []float64
	i, f, g, o      []float64
	c, tanhC, h     []float64
}

// cacheFloats is the float count one step's cache carves from an arena.
func (l *LSTM) cacheFloats() int { return 7 * l.Hidden }

// newCache carves a step cache for this layer from a.
func (l *LSTM) newCache(a *arena) lstmCache {
	H := l.Hidden
	return lstmCache{
		i: a.take(H), f: a.take(H), g: a.take(H), o: a.take(H),
		c: a.take(H), tanhC: a.take(H), h: a.take(H),
	}
}

// Step advances the layer one timestep from the state (hPrev, cPrev),
// writing the gate activations and the new state (cache.h, cache.c) into
// cache. The four gate pre-activations of a hidden unit are summed in one
// pass, each in the order bias, x, hPrev.
func (l *LSTM) Step(cache *lstmCache, x, hPrev, cPrev []float64) {
	H := l.Hidden
	width := l.In + H
	cache.x, cache.hPrev, cache.cPrev = x, hPrev, cPrev
	w, b := l.W.W, l.B.W
	nx := len(x)
	for h := 0; h < H; h++ {
		r0 := w[h*width : (h+1)*width]
		r1 := w[(H+h)*width : (H+h+1)*width]
		r2 := w[(2*H+h)*width : (2*H+h+1)*width]
		r3 := w[(3*H+h)*width : (3*H+h+1)*width]
		s0, s1, s2, s3 := b[h], b[H+h], b[2*H+h], b[3*H+h]
		x0, x1, x2, x3 := r0[:nx], r1[:nx], r2[:nx], r3[:nx]
		for k, xv := range x {
			s0 += x0[k] * xv
			s1 += x1[k] * xv
			s2 += x2[k] * xv
			s3 += x3[k] * xv
		}
		h0, h1, h2, h3 := r0[l.In:][:len(hPrev)], r1[l.In:][:len(hPrev)], r2[l.In:][:len(hPrev)], r3[l.In:][:len(hPrev)]
		for k, hv := range hPrev {
			s0 += h0[k] * hv
			s1 += h1[k] * hv
			s2 += h2[k] * hv
			s3 += h3[k] * hv
		}
		i := sigmoid(s0)
		f := sigmoid(s1)
		g := math.Tanh(s2)
		o := sigmoid(s3)
		c := f*cPrev[h] + i*g
		tc := math.Tanh(c)
		cache.i[h], cache.f[h], cache.g[h], cache.o[h] = i, f, g, o
		cache.c[h], cache.tanhC[h] = c, tc
		cache.h[h] = o * tc
	}
}

// StepBackward backpropagates one timestep. dH and dC are the upstream
// gradients w.r.t. the step's output state. It accumulates the parameter
// gradients and overwrites dx, dHPrev and dCPrev with the gradients w.r.t.
// the input x and the previous state. One pass over k updates all four gate
// rows of a hidden unit, adding their terms into dx[k] and dHPrev[k] in gate
// order.
func (l *LSTM) StepBackward(cache *lstmCache, dH, dC, dx, dHPrev, dCPrev []float64) {
	H := l.Hidden
	width := l.In + H
	x, hPrev := cache.x, cache.hPrev
	nx, nh := len(x), len(hPrev)
	dx, dHPrev = dx[:nx], dHPrev[:nh]
	clear(dx)
	clear(dHPrev)
	clear(dCPrev)
	w, gw, gb := l.W.W, l.W.G, l.B.G
	for h := 0; h < H; h++ {
		i, f, g, o := cache.i[h], cache.f[h], cache.g[h], cache.o[h]
		tc := cache.tanhC[h]
		dOut := dH[h]
		dc := dC[h] + dOut*o*(1-tc*tc)
		// Pre-activation gradients.
		var dPre [4]float64
		dPre[0] = dc * g * i * (1 - i)              // input gate
		dPre[1] = dc * cache.cPrev[h] * f * (1 - f) // forget gate
		dPre[2] = dc * i * (1 - g*g)                // cell candidate
		dPre[3] = dOut * tc * o * (1 - o)           // output gate
		dCPrev[h] += dc * f
		if dPre[0] == 0 || dPre[1] == 0 || dPre[2] == 0 || dPre[3] == 0 {
			// A zero gate is skipped outright: adding 0*row[k] could turn
			// a -0 into a +0.
			l.gatesBackward(&dPre, h, x, hPrev, dx, dHPrev)
			continue
		}
		d0, d1, d2, d3 := dPre[0], dPre[1], dPre[2], dPre[3]
		gb[h] += d0
		gb[H+h] += d1
		gb[2*H+h] += d2
		gb[3*H+h] += d3
		r0 := w[h*width : (h+1)*width]
		r1 := w[(H+h)*width : (H+h+1)*width]
		r2 := w[(2*H+h)*width : (2*H+h+1)*width]
		r3 := w[(3*H+h)*width : (3*H+h+1)*width]
		g0 := gw[h*width : (h+1)*width]
		g1 := gw[(H+h)*width : (H+h+1)*width]
		g2 := gw[(2*H+h)*width : (2*H+h+1)*width]
		g3 := gw[(3*H+h)*width : (3*H+h+1)*width]
		{
			r0, r1, r2, r3 := r0[:nx], r1[:nx], r2[:nx], r3[:nx]
			g0, g1, g2, g3 := g0[:nx], g1[:nx], g2[:nx], g3[:nx]
			for k, xv := range x {
				g0[k] += d0 * xv
				g1[k] += d1 * xv
				g2[k] += d2 * xv
				g3[k] += d3 * xv
				s := dx[k]
				s += d0 * r0[k]
				s += d1 * r1[k]
				s += d2 * r2[k]
				s += d3 * r3[k]
				dx[k] = s
			}
		}
		r0, r1, r2, r3 = r0[l.In:][:nh], r1[l.In:][:nh], r2[l.In:][:nh], r3[l.In:][:nh]
		g0, g1, g2, g3 = g0[l.In:][:nh], g1[l.In:][:nh], g2[l.In:][:nh], g3[l.In:][:nh]
		for k, hv := range hPrev {
			g0[k] += d0 * hv
			g1[k] += d1 * hv
			g2[k] += d2 * hv
			g3[k] += d3 * hv
			s := dHPrev[k]
			s += d0 * r0[k]
			s += d1 * r1[k]
			s += d2 * r2[k]
			s += d3 * r3[k]
			dHPrev[k] = s
		}
	}
}

// gatesBackward is StepBackward's inner loop one gate at a time, for a
// hidden unit h with a gate whose pre-activation gradient is exactly zero.
func (l *LSTM) gatesBackward(dPre *[4]float64, h int, x, hPrev, dx, dHPrev []float64) {
	H := l.Hidden
	width := l.In + H
	for gate, gp := range dPre {
		if gp == 0 {
			continue
		}
		rowIdx := gate*H + h
		row := l.W.W[rowIdx*width : (rowIdx+1)*width]
		grow := l.W.G[rowIdx*width : (rowIdx+1)*width]
		l.B.G[rowIdx] += gp
		for k, xv := range x {
			grow[k] += gp * xv
			dx[k] += gp * row[k]
		}
		for k, hv := range hPrev {
			grow[l.In+k] += gp * hv
			dHPrev[k] += gp * row[l.In+k]
		}
	}
}

// Params returns the layer's trainable parameters.
func (l *LSTM) Params() []*Param { return []*Param{l.W, l.B} }

// NumWeights reports the weight count.
func (l *LSTM) NumWeights() int { return len(l.W.W) + len(l.B.W) }
