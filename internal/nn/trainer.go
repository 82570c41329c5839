package nn

import (
	"qb5000/internal/parallel"
)

// arena hands out consecutive slices of one preallocated buffer.
type arena []float64

// take carves the next n floats.
func (a *arena) take(n int) []float64 {
	s := (*a)[:n:n]
	*a = (*a)[n:]
	return s
}

// trainWorkers is the fixed degree of data parallelism for batch training.
// It is a constant (rather than NumCPU) so gradient summation order — and
// therefore every trained model — is identical on every machine.
const trainWorkers = 4

// LSTMTrainer accumulates an LSTMNet's mean-squared-error gradients batch by
// batch. It owns every piece of training scratch — the per-timestep caches
// and gradient buffers of backpropagation through time, and the worker
// copies of the network for the data-parallel path — carved once and reused
// across sequences, batches and epochs. The network holds no reference to
// any of it, so a fitted network can be shared with concurrent readers once
// training stops.
type LSTMTrainer struct {
	net    *LSTMNet
	params []*Param
	serial *bptt
	// workers are built on the first batch wide enough to split: each has
	// its own gradient-only copy of the network, whose weights are copied
	// in before every batch and whose gradients are zeroed after the
	// combine.
	workers []*bptt
}

// NewLSTMTrainer prepares to train net.
func NewLSTMTrainer(net *LSTMNet) *LSTMTrainer {
	params := net.Params()
	return &LSTMTrainer{net: net, params: params, serial: newBPTT(net, params)}
}

// TrainBatch accumulates the MSE gradients of a batch of (sequence, target)
// pairs into the network's parameters and returns the batch loss. Callers
// step the optimizer afterwards. A batch of at least 2*trainWorkers
// sequences is split into contiguous chunks across trainWorkers workers on
// the shared pool; each chunk's gradients are then rescaled and added in
// chunk order. That result differs from a serial pass over the whole batch
// only by floating-point association in the gradient sums.
func (t *LSTMTrainer) TrainBatch(seqs [][][]float64, targets [][]float64) float64 {
	if len(seqs) < 2*trainWorkers {
		return t.serial.trainBatch(seqs, targets)
	}
	if t.workers == nil {
		for w := 0; w < trainWorkers; w++ {
			net := t.net.gradCopy()
			t.workers = append(t.workers, newBPTT(net, net.Params()))
		}
	}
	chunkSize := (len(seqs) + trainWorkers - 1) / trainWorkers
	chunks := (len(seqs) + chunkSize - 1) / chunkSize
	for _, w := range t.workers[:chunks] {
		for pi, p := range w.params {
			copy(p.W, t.params[pi].W)
		}
	}
	// Gradient accumulation cannot fail and needs no cancellation, so the
	// infallible pool variant fits: no context to thread, no always-nil
	// error to discard.
	parallel.Each(trainWorkers, chunks, func(i int) {
		from := i * chunkSize
		to := min(from+chunkSize, len(seqs))
		t.workers[i].loss = t.workers[i].trainBatch(seqs[from:to], targets[from:to])
	})

	// Combine: each worker normalized its gradients by its own chunk size;
	// rescale so the sum matches the serial full-batch normalization.
	total := float64(len(seqs))
	var loss float64
	for i, w := range t.workers[:chunks] {
		size := min(chunkSize, len(seqs)-i*chunkSize)
		scale := float64(size) / total
		loss += w.loss * scale
		for pi, p := range w.params {
			dst := t.params[pi].G
			for j, g := range p.G {
				dst[j] += g * scale
			}
			clear(p.G)
		}
	}
	return loss
}

// gradCopy builds a copy of the network's shape with weight and gradient
// buffers only, carved from one allocation; a worker never steps an
// optimizer, so it needs no Adam moments.
func (n *LSTMNet) gradCopy() *LSTMNet {
	a := arena(make([]float64, 2*n.NumWeights()))
	param := func(p *Param) *Param {
		return &Param{W: a.take(len(p.W)), G: a.take(len(p.W))}
	}
	dense := func(d *Dense) *Dense { return &Dense{In: d.In, Out: d.Out, W: param(d.W), B: param(d.B)} }
	c := &LSTMNet{Embed: dense(n.Embed), Out: dense(n.Out)}
	for _, cell := range n.Cells {
		c.Cells = append(c.Cells, &LSTM{In: cell.In, Hidden: cell.Hidden, W: param(cell.W), B: param(cell.B)})
	}
	return c
}

// bptt is the scratch of backpropagation through time for one network:
// per-timestep embedding outputs and step caches, sized on first use to the
// sequence length and grown only for a longer sequence.
type bptt struct {
	net    *LSTMNet
	params []*Param
	loss   float64 // the last chunk's loss, read by the combine

	steps    int           // timesteps the caches hold
	embedOut [][]float64   // [t]
	caches   [][]lstmCache // [layer][t]
	zero     []float64     // the initial state, never written
	out, dy  []float64     // readout and its gradient
	dLast    []float64     // gradient w.r.t. the final hidden state
	dx       [][]float64   // [layer]: gradient w.r.t. the layer's input
	// dH and dC carry the recurrent gradient of each layer; StepBackward
	// reads one of the pair and writes the other.
	dH, dC [][2][]float64
}

func newBPTT(net *LSTMNet, params []*Param) *bptt {
	L := len(net.Cells)
	size := 2*net.Out.Out + net.lastHidden() + net.maxHidden()
	for _, c := range net.Cells {
		size += c.In + 4*c.Hidden
	}
	a := arena(make([]float64, size))
	b := &bptt{
		net: net, params: params,
		out: a.take(net.Out.Out), dy: a.take(net.Out.Out),
		dLast: a.take(net.lastHidden()), zero: a.take(net.maxHidden()),
		caches: make([][]lstmCache, L),
		dx:     make([][]float64, L),
		dH:     make([][2][]float64, L),
		dC:     make([][2][]float64, L),
	}
	for l, c := range net.Cells {
		b.dx[l] = a.take(c.In)
		b.dH[l] = [2][]float64{a.take(c.Hidden), a.take(c.Hidden)}
		b.dC[l] = [2][]float64{a.take(c.Hidden), a.take(c.Hidden)}
	}
	return b
}

// reserve sizes the per-timestep scratch for sequences of T steps.
func (b *bptt) reserve(T int) {
	if T <= b.steps {
		return
	}
	n := b.net
	size := T * n.Embed.Out
	for _, c := range n.Cells {
		size += T * c.cacheFloats()
	}
	a := arena(make([]float64, size))
	b.embedOut = make([][]float64, T)
	for t := range b.embedOut {
		b.embedOut[t] = a.take(n.Embed.Out)
	}
	for l, c := range n.Cells {
		b.caches[l] = make([]lstmCache, T)
		for t := range b.caches[l] {
			b.caches[l][t] = c.newCache(&a)
		}
	}
	b.steps = T
}

// trainBatch accumulates MSE gradients over a batch into b.net's parameters
// and returns the batch loss.
func (b *bptt) trainBatch(seqs [][][]float64, targets [][]float64) float64 {
	var loss float64
	for s, seq := range seqs {
		pred := b.forward(seq)
		target := targets[s]
		for i, p := range pred {
			d := p - target[i]
			loss += d * d
			b.dy[i] = 2 * d / float64(len(pred)*len(seqs))
		}
		b.backward(seq)
	}
	return loss / float64(len(seqs))
}

// forward runs seq through the network, keeping every step's cache, and
// returns the readout of the final step.
func (b *bptt) forward(seq [][]float64) []float64 {
	b.reserve(len(seq))
	n := b.net
	var last []float64
	for t, x := range seq {
		cur := n.Embed.Forward(b.embedOut[t], x)
		for l, c := range n.Cells {
			cache := &b.caches[l][t]
			hPrev, cPrev := b.zero[:c.Hidden], b.zero[:c.Hidden]
			if t > 0 {
				prev := &b.caches[l][t-1]
				hPrev, cPrev = prev.h, prev.c
			}
			c.Step(cache, cur, hPrev, cPrev)
			cur = cache.h
		}
		last = cur
	}
	return n.Out.Forward(b.out, last)
}

// backward backpropagates b.dy through time from the final-step readout of
// the forward pass over seq.
func (b *bptt) backward(seq [][]float64) {
	T := len(seq)
	if T == 0 {
		return
	}
	n := b.net
	L := len(n.Cells)
	for l := range n.Cells {
		clear(b.dH[l][0])
		clear(b.dC[l][0])
	}
	// Seed from the readout at the final step.
	n.Out.Backward(b.dLast, b.caches[L-1][T-1].h, b.dy)
	addInto(b.dH[L-1][0], b.dLast)

	for t := T - 1; t >= 0; t-- {
		cur := (T - 1 - t) % 2
		// dFromAbove is the gradient flowing into layer l's output at step
		// t from layer l+1's input at the same step.
		var dFromAbove []float64
		for l := L - 1; l >= 0; l-- {
			up := b.dH[l][cur]
			if dFromAbove != nil {
				addInto(up, dFromAbove)
			}
			n.Cells[l].StepBackward(&b.caches[l][t], up, b.dC[l][cur], b.dx[l], b.dH[l][1-cur], b.dC[l][1-cur])
			dFromAbove = b.dx[l]
		}
		// dFromAbove is now the gradient w.r.t. the embedding output; the
		// embedding's own input gradient is never needed.
		n.Embed.Backward(nil, seq[t], dFromAbove)
	}
}

func addInto(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}
