package nn

import "math/rand"

// LSTMNet is the forecasting network from the paper (§7.2): a linear
// embedding layer followed by stacked LSTM layers and a linear readout of
// the final hidden state (many-to-one sequence regression).
type LSTMNet struct {
	Embed *Dense
	Cells []*LSTM
	Out   *Dense
}

// NewLSTMNet builds the network. The paper's configuration is an embedding
// of size 25 followed by two LSTM layers of 20 cells each.
func NewLSTMNet(rng *rand.Rand, in, embed int, hidden []int, out int) *LSTMNet {
	net := &LSTMNet{Embed: NewDense(rng, in, embed)}
	prev := embed
	for _, h := range hidden {
		net.Cells = append(net.Cells, NewLSTM(rng, prev, h))
		prev = h
	}
	net.Out = NewDense(rng, prev, out)
	return net
}

// Predict runs the sequence through the network and returns the readout of
// the final step. It allocates its own scratch on every call — two step
// caches per layer, not one per step — so concurrent readers may share a
// fitted network.
func (n *LSTMNet) Predict(seq [][]float64) []float64 {
	size := n.Out.Out + n.Embed.Out + n.maxHidden()
	for _, c := range n.Cells {
		size += 2 * c.cacheFloats()
	}
	a := arena(make([]float64, size))
	out, emb, zero := a.take(n.Out.Out), a.take(n.Embed.Out), a.take(n.maxHidden())
	caches := make([]lstmCache, 2*len(n.Cells))
	for l, c := range n.Cells {
		caches[2*l], caches[2*l+1] = c.newCache(&a), c.newCache(&a)
	}
	last := zero[:n.lastHidden()]
	for t, x := range seq {
		cur := n.Embed.Forward(emb, x)
		for l, c := range n.Cells {
			cache := &caches[2*l+t%2]
			hPrev, cPrev := zero[:c.Hidden], zero[:c.Hidden]
			if t > 0 {
				prev := &caches[2*l+(t-1)%2]
				hPrev, cPrev = prev.h, prev.c
			}
			c.Step(cache, cur, hPrev, cPrev)
			cur = cache.h
		}
		last = cur
	}
	return n.Out.Forward(out, last)
}

func (n *LSTMNet) lastHidden() int {
	if len(n.Cells) == 0 {
		return n.Embed.Out
	}
	return n.Cells[len(n.Cells)-1].Hidden
}

// maxHidden is the widest recurrent state, the length of a shared zero
// state (and, for a network without cells, of the embedding output).
func (n *LSTMNet) maxHidden() int {
	m := n.Embed.Out
	for _, c := range n.Cells {
		m = max(m, c.Hidden)
	}
	return m
}

// Params returns all trainable parameters.
func (n *LSTMNet) Params() []*Param {
	ps := n.Embed.Params()
	for _, c := range n.Cells {
		ps = append(ps, c.Params()...)
	}
	return append(ps, n.Out.Params()...)
}

// NumWeights reports the total weight count (Table 4 model-size accounting).
func (n *LSTMNet) NumWeights() int {
	total := n.Embed.NumWeights() + n.Out.NumWeights()
	for _, c := range n.Cells {
		total += c.NumWeights()
	}
	return total
}
