// Package mlp implements the multilayer-perceptron bit-wise arrival-time
// model explored in the paper (§3.4.1): a dense feed-forward network over
// path feature vectors trained with Adam, supporting both plain MSE and
// the grouped max-arrival-time loss of Eq. 3 (the endpoint prediction is
// the max over its sampled paths; gradients flow through the argmax path).
package mlp

import (
	"math"
	"math/rand"

	ad "rtltimer/internal/ml/autodiff"
)

// Options configures training. The paper uses 3 layers with hidden
// dimension 512; this reproduction defaults to a proportionally smaller
// network matched to its smaller benchmark designs.
type Options struct {
	Hidden    []int
	Epochs    int
	LR        float64
	BatchRows int // approximate rows per step
	Seed      int64
}

// DefaultOptions returns the default MLP configuration.
func DefaultOptions() Options {
	return Options{Hidden: []int{64, 64}, Epochs: 30, LR: 1e-3, BatchRows: 2048}
}

// Model is a trained MLP with input standardization.
type Model struct {
	ws, bs    []*ad.Tensor
	mean, std []float64
	nFeatures int
}

func newModel(nf int, hidden []int, rng *rand.Rand) *Model {
	m := &Model{nFeatures: nf}
	dims := append([]int{nf}, hidden...)
	dims = append(dims, 1)
	for i := 0; i+1 < len(dims); i++ {
		m.ws = append(m.ws, ad.Param(dims[i], dims[i+1], rng))
		m.bs = append(m.bs, ad.Param(1, dims[i+1], rng))
	}
	return m
}

func (m *Model) params() []*ad.Tensor {
	var ps []*ad.Tensor
	ps = append(ps, m.ws...)
	ps = append(ps, m.bs...)
	return ps
}

// standardize fits feature scaling on X.
func (m *Model) fitScaling(X [][]float64) {
	nf := m.nFeatures
	m.mean = make([]float64, nf)
	m.std = make([]float64, nf)
	for _, row := range X {
		for f := 0; f < nf; f++ {
			m.mean[f] += row[f]
		}
	}
	n := float64(len(X))
	for f := range m.mean {
		m.mean[f] /= n
	}
	for _, row := range X {
		for f := 0; f < nf; f++ {
			d := row[f] - m.mean[f]
			m.std[f] += d * d
		}
	}
	for f := range m.std {
		m.std[f] = m.std[f] / n
		if m.std[f] < 1e-12 {
			m.std[f] = 1
		} else {
			m.std[f] = math.Sqrt(m.std[f])
		}
	}
}

// input builds the standardized input tensor for a set of rows.
func (m *Model) input(X [][]float64, idx []int) *ad.Tensor {
	t := ad.New(len(idx), m.nFeatures)
	for i, r := range idx {
		for f := 0; f < m.nFeatures; f++ {
			t.Set(i, f, (X[r][f]-m.mean[f])/m.std[f])
		}
	}
	return t
}

// forward runs the network on an input tensor, returning an n×1 tensor.
func (m *Model) forward(x *ad.Tensor) *ad.Tensor {
	h := x
	for i := range m.ws {
		h = ad.AddRow(ad.MatMul(h, m.ws[i]), m.bs[i])
		if i+1 < len(m.ws) {
			h = ad.ReLU(h)
		}
	}
	return h
}

// Predict evaluates one feature vector.
func (m *Model) Predict(x []float64) float64 {
	t := ad.New(1, m.nFeatures)
	for f := 0; f < m.nFeatures; f++ {
		t.Set(0, f, (x[f]-m.mean[f])/m.std[f])
	}
	return m.forward(t).Data[0]
}

// PredictAll evaluates many rows.
func (m *Model) PredictAll(X [][]float64) []float64 {
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	if len(X) == 0 {
		return nil
	}
	return append([]float64(nil), m.forward(m.input(X, idx)).Data...)
}

// TrainGroupMax fits the network with the grouped max loss: groups[i]
// lists the sample rows of endpoint i and labels[i] its arrival time.
func TrainGroupMax(X [][]float64, groups [][]int, labels []float64, opts Options) *Model {
	if len(opts.Hidden) == 0 {
		opts = mergeDefaults(opts)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	m := newModel(len(X[0]), opts.Hidden, rng)
	m.fitScaling(X)
	optim := ad.NewAdam(opts.LR, m.params()...)
	gperm := rng.Perm(len(groups))
	for ep := 0; ep < opts.Epochs; ep++ {
		var batchGroups []int
		rows := 0
		flush := func() {
			if len(batchGroups) == 0 {
				return
			}
			// Flatten rows of the batch.
			var idx []int
			rowOf := map[int]int{}
			for _, gi := range batchGroups {
				for _, r := range groups[gi] {
					rowOf[r] = len(idx)
					idx = append(idx, r)
				}
			}
			xb := m.input(X, idx)
			pred := m.forward(xb)
			// Mask: only the argmax row of each group carries loss.
			target := make([]float64, len(idx))
			weight := make([]float64, len(idx))
			for _, gi := range batchGroups {
				g := groups[gi]
				if len(g) == 0 {
					continue
				}
				arg := g[0]
				for _, r := range g[1:] {
					if pred.Data[rowOf[r]] > pred.Data[rowOf[arg]] {
						arg = r
					}
				}
				target[rowOf[arg]] = labels[gi]
				weight[rowOf[arg]] = 1
			}
			loss := ad.MSELossMasked(pred, target, weight)
			ad.Backward(loss)
			optim.Step()
			batchGroups = batchGroups[:0]
			rows = 0
		}
		for _, gi := range gperm {
			batchGroups = append(batchGroups, gi)
			rows += len(groups[gi])
			if rows >= opts.BatchRows {
				flush()
			}
		}
		flush()
		shuffle(gperm, rng)
	}
	return m
}

func mergeDefaults(o Options) Options {
	d := DefaultOptions()
	if len(o.Hidden) == 0 {
		o.Hidden = d.Hidden
	}
	if o.Epochs == 0 {
		o.Epochs = d.Epochs
	}
	if o.LR == 0 {
		o.LR = d.LR
	}
	if o.BatchRows == 0 {
		o.BatchRows = d.BatchRows
	}
	return o
}

func shuffle(p []int, rng *rand.Rand) {
	for i := len(p) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
