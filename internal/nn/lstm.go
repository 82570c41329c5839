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

// LSTMState is the recurrent (h, c) pair.
type LSTMState struct {
	H, C []float64
}

// NewState returns a zero state.
func (l *LSTM) NewState() LSTMState {
	return LSTMState{H: make([]float64, l.Hidden), C: make([]float64, l.Hidden)}
}

// lstmCache stores the per-step activations needed by BPTT.
type lstmCache struct {
	x, hPrev, cPrev []float64
	i, f, g, o      []float64
	c, tanhC        []float64
}

// Step advances the layer one timestep, returning the new state and the
// cache required to backpropagate through this step.
func (l *LSTM) Step(x []float64, st LSTMState) (LSTMState, *lstmCache) {
	H := l.Hidden
	cache := &lstmCache{
		x: x, hPrev: st.H, cPrev: st.C,
		i: make([]float64, H), f: make([]float64, H),
		g: make([]float64, H), o: make([]float64, H),
		c: make([]float64, H), tanhC: make([]float64, H),
	}
	width := l.In + H
	next := LSTMState{H: make([]float64, H), C: make([]float64, H)}
	for h := 0; h < H; h++ {
		var pre [4]float64
		for gate := 0; gate < 4; gate++ {
			rowIdx := gate*H + h
			row := l.W.W[rowIdx*width : (rowIdx+1)*width]
			s := l.B.W[rowIdx]
			for k, xv := range x {
				s += row[k] * xv
			}
			for k, hv := range st.H {
				s += row[l.In+k] * hv
			}
			pre[gate] = s
		}
		i := sigmoid(pre[0])
		f := sigmoid(pre[1])
		g := math.Tanh(pre[2])
		o := sigmoid(pre[3])
		c := f*st.C[h] + i*g
		tc := math.Tanh(c)
		cache.i[h], cache.f[h], cache.g[h], cache.o[h] = i, f, g, o
		cache.c[h], cache.tanhC[h] = c, tc
		next.C[h] = c
		next.H[h] = o * tc
	}
	return next, cache
}

// StepBackward backpropagates one timestep. dH and dC are the upstream
// gradients w.r.t. this step's output state; it returns the gradients
// w.r.t. the input x and the previous state.
func (l *LSTM) StepBackward(cache *lstmCache, dH, dC []float64) (dx []float64, dHPrev, dCPrev []float64) {
	H := l.Hidden
	width := l.In + H
	dx = make([]float64, l.In)
	dHPrev = make([]float64, H)
	dCPrev = make([]float64, H)
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
		for gate := 0; gate < 4; gate++ {
			gp := dPre[gate]
			if gp == 0 {
				continue
			}
			rowIdx := gate*H + h
			row := l.W.W[rowIdx*width : (rowIdx+1)*width]
			grow := l.W.G[rowIdx*width : (rowIdx+1)*width]
			l.B.G[rowIdx] += gp
			for k, xv := range cache.x {
				grow[k] += gp * xv
				dx[k] += gp * row[k]
			}
			for k, hv := range cache.hPrev {
				grow[l.In+k] += gp * hv
				dHPrev[k] += gp * row[l.In+k]
			}
		}
	}
	return dx, dHPrev, dCPrev
}

// Params returns the layer's trainable parameters.
func (l *LSTM) Params() []*Param { return []*Param{l.W, l.B} }

// NumWeights reports the weight count.
func (l *LSTM) NumWeights() int { return len(l.W.W) + len(l.B.W) }
