// Package autodiff is a compact reverse-mode automatic differentiation
// engine over dense 2-D float64 tensors. It provides exactly the operator
// set needed by the neural models in this repository (MLP, Transformer
// path encoder, and the GNN baseline): matrix multiply, broadcast add,
// elementwise nonlinearities, row softmax, row mean, sparse aggregation,
// row gather and L2 loss, plus an Adam optimizer.
package autodiff

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense rows×cols matrix participating in the autodiff graph.
type Tensor struct {
	Rows, Cols int
	Data       []float64
	Grad       []float64

	requiresGrad bool
	backward     func()
	parents      []*Tensor
}

// New creates a zero tensor.
func New(rows, cols int) *Tensor {
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromData wraps row-major data (not copied).
func FromData(rows, cols int, data []float64) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("autodiff: data length %d != %d x %d", len(data), rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// Param creates a trainable tensor initialized with scaled Gaussian noise.
func Param(rows, cols int, rng *rand.Rand) *Tensor {
	t := New(rows, cols)
	scale := math.Sqrt(2.0 / float64(rows))
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * scale
	}
	t.requiresGrad = true
	t.Grad = make([]float64, rows*cols)
	return t
}

// At returns element (i, j).
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.Cols+j] }

// Set assigns element (i, j).
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.Cols+j] = v }

func (t *Tensor) needGrad() bool {
	if t.requiresGrad {
		return true
	}
	for _, p := range t.parents {
		if p.needGrad() {
			return true
		}
	}
	return t.backward != nil
}

func child(rows, cols int, parents ...*Tensor) *Tensor {
	c := New(rows, cols)
	c.parents = parents
	c.Grad = make([]float64, rows*cols)
	return c
}

// MatMul returns a @ b.
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("autodiff: matmul %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := child(a.Rows, b.Cols, a, b)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.Data[i*a.Cols+k]
			if av == 0 {
				continue
			}
			bRow := b.Data[k*b.Cols:]
			cRow := c.Data[i*c.Cols:]
			for j := 0; j < b.Cols; j++ {
				cRow[j] += av * bRow[j]
			}
		}
	}
	c.backward = func() {
		// dA = dC @ B^T ; dB = A^T @ dC
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < b.Cols; j++ {
				g := c.Grad[i*c.Cols+j]
				if g == 0 {
					continue
				}
				for k := 0; k < a.Cols; k++ {
					if a.Grad != nil {
						a.Grad[i*a.Cols+k] += g * b.Data[k*b.Cols+j]
					}
					if b.Grad != nil {
						b.Grad[k*b.Cols+j] += g * a.Data[i*a.Cols+k]
					}
				}
			}
		}
	}
	return c
}

// AddRow broadcasts a 1×cols bias over every row of a.
func AddRow(a, bias *Tensor) *Tensor {
	if bias.Rows != 1 || bias.Cols != a.Cols {
		panic("autodiff: bias shape")
	}
	c := child(a.Rows, a.Cols, a, bias)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			c.Data[i*a.Cols+j] = a.Data[i*a.Cols+j] + bias.Data[j]
		}
	}
	c.backward = func() {
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				g := c.Grad[i*a.Cols+j]
				if a.Grad != nil {
					a.Grad[i*a.Cols+j] += g
				}
				if bias.Grad != nil {
					bias.Grad[j] += g
				}
			}
		}
	}
	return c
}

// Add returns a + b (same shape).
func Add(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("autodiff: add shape")
	}
	c := child(a.Rows, a.Cols, a, b)
	for i := range c.Data {
		c.Data[i] = a.Data[i] + b.Data[i]
	}
	c.backward = func() {
		for i := range c.Data {
			if a.Grad != nil {
				a.Grad[i] += c.Grad[i]
			}
			if b.Grad != nil {
				b.Grad[i] += c.Grad[i]
			}
		}
	}
	return c
}

// Scale returns a * s.
func Scale(a *Tensor, s float64) *Tensor {
	c := child(a.Rows, a.Cols, a)
	for i := range c.Data {
		c.Data[i] = a.Data[i] * s
	}
	c.backward = func() {
		if a.Grad == nil {
			return
		}
		for i := range c.Data {
			a.Grad[i] += c.Grad[i] * s
		}
	}
	return c
}

// ReLU applies max(0, x) elementwise.
func ReLU(a *Tensor) *Tensor {
	c := child(a.Rows, a.Cols, a)
	for i, v := range a.Data {
		if v > 0 {
			c.Data[i] = v
		}
	}
	c.backward = func() {
		if a.Grad == nil {
			return
		}
		for i, v := range a.Data {
			if v > 0 {
				a.Grad[i] += c.Grad[i]
			}
		}
	}
	return c
}

// Tanh applies tanh elementwise.
func Tanh(a *Tensor) *Tensor {
	c := child(a.Rows, a.Cols, a)
	for i, v := range a.Data {
		c.Data[i] = math.Tanh(v)
	}
	c.backward = func() {
		if a.Grad == nil {
			return
		}
		for i := range a.Data {
			c1 := c.Data[i]
			a.Grad[i] += c.Grad[i] * (1 - c1*c1)
		}
	}
	return c
}

// SoftmaxRows applies softmax along each row.
func SoftmaxRows(a *Tensor) *Tensor {
	c := child(a.Rows, a.Cols, a)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		out := c.Data[i*a.Cols : (i+1)*a.Cols]
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for j, v := range row {
			out[j] = math.Exp(v - maxv)
			sum += out[j]
		}
		for j := range out {
			out[j] /= sum
		}
	}
	c.backward = func() {
		if a.Grad == nil {
			return
		}
		for i := 0; i < a.Rows; i++ {
			out := c.Data[i*a.Cols : (i+1)*a.Cols]
			g := c.Grad[i*a.Cols : (i+1)*a.Cols]
			dot := 0.0
			for j := range out {
				dot += out[j] * g[j]
			}
			for j := range out {
				a.Grad[i*a.Cols+j] += out[j] * (g[j] - dot)
			}
		}
	}
	return c
}

// MeanRows reduces rows to their mean, producing 1×cols.
func MeanRows(a *Tensor) *Tensor {
	c := child(1, a.Cols, a)
	inv := 1.0 / float64(a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			c.Data[j] += a.Data[i*a.Cols+j] * inv
		}
	}
	c.backward = func() {
		if a.Grad == nil {
			return
		}
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				a.Grad[i*a.Cols+j] += c.Grad[j] * inv
			}
		}
	}
	return c
}

// ConcatCols concatenates tensors horizontally (same row count).
func ConcatCols(ts ...*Tensor) *Tensor {
	rows := ts[0].Rows
	cols := 0
	for _, t := range ts {
		if t.Rows != rows {
			panic("autodiff: concat rows")
		}
		cols += t.Cols
	}
	c := child(rows, cols, ts...)
	off := 0
	for _, t := range ts {
		for i := 0; i < rows; i++ {
			copy(c.Data[i*cols+off:i*cols+off+t.Cols], t.Data[i*t.Cols:(i+1)*t.Cols])
		}
		off += t.Cols
	}
	c.backward = func() {
		off := 0
		for _, t := range ts {
			if t.Grad != nil {
				for i := 0; i < rows; i++ {
					for j := 0; j < t.Cols; j++ {
						t.Grad[i*t.Cols+j] += c.Grad[i*cols+off+j]
					}
				}
			}
			off += t.Cols
		}
	}
	return c
}

// Transpose returns a^T.
func Transpose(a *Tensor) *Tensor {
	c := child(a.Cols, a.Rows, a)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			c.Data[j*a.Rows+i] = a.Data[i*a.Cols+j]
		}
	}
	c.backward = func() {
		if a.Grad == nil {
			return
		}
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				a.Grad[i*a.Cols+j] += c.Grad[j*a.Rows+i]
			}
		}
	}
	return c
}

// GatherRows selects rows of a by index.
func GatherRows(a *Tensor, idx []int) *Tensor {
	c := child(len(idx), a.Cols, a)
	for i, r := range idx {
		copy(c.Data[i*a.Cols:(i+1)*a.Cols], a.Data[r*a.Cols:(r+1)*a.Cols])
	}
	c.backward = func() {
		if a.Grad == nil {
			return
		}
		for i, r := range idx {
			for j := 0; j < a.Cols; j++ {
				a.Grad[r*a.Cols+j] += c.Grad[i*a.Cols+j]
			}
		}
	}
	return c
}

// SparseAgg computes out[i] = mean over e in edges[i] of a[e]: fixed-topology
// mean aggregation used by the GNN (no gradient with respect to edges).
func SparseAgg(a *Tensor, edges [][]int32) *Tensor {
	c := child(len(edges), a.Cols, a)
	for i, es := range edges {
		if len(es) == 0 {
			continue
		}
		inv := 1.0 / float64(len(es))
		for _, e := range es {
			for j := 0; j < a.Cols; j++ {
				c.Data[i*a.Cols+j] += a.Data[int(e)*a.Cols+j] * inv
			}
		}
	}
	c.backward = func() {
		if a.Grad == nil {
			return
		}
		for i, es := range edges {
			if len(es) == 0 {
				continue
			}
			inv := 1.0 / float64(len(es))
			for _, e := range es {
				for j := 0; j < a.Cols; j++ {
					a.Grad[int(e)*a.Cols+j] += c.Grad[i*a.Cols+j] * inv
				}
			}
		}
	}
	return c
}

// MSELossMasked computes sum_i w[i]*(pred[i]-target[i])^2 / sum(w) over a
// column vector. w may be nil (all ones). Returns a 1x1 tensor.
func MSELossMasked(pred *Tensor, target, w []float64) *Tensor {
	if pred.Cols != 1 || pred.Rows != len(target) {
		panic("autodiff: loss shape")
	}
	c := child(1, 1, pred)
	totalW := 0.0
	for i := range target {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		d := pred.Data[i] - target[i]
		c.Data[0] += wi * d * d
		totalW += wi
	}
	if totalW == 0 {
		totalW = 1
	}
	c.Data[0] /= totalW
	c.backward = func() {
		if pred.Grad == nil {
			return
		}
		g := c.Grad[0] / totalW
		for i := range target {
			wi := 1.0
			if w != nil {
				wi = w[i]
			}
			pred.Grad[i] += g * 2 * wi * (pred.Data[i] - target[i])
		}
	}
	return c
}

// Backward runs reverse-mode differentiation from a scalar tensor.
func Backward(loss *Tensor) {
	if loss.Rows != 1 || loss.Cols != 1 {
		panic("autodiff: backward from non-scalar")
	}
	// Topological order via DFS.
	var order []*Tensor
	seen := map[*Tensor]bool{}
	var visit func(t *Tensor)
	visit = func(t *Tensor) {
		if seen[t] {
			return
		}
		seen[t] = true
		for _, p := range t.parents {
			visit(p)
		}
		order = append(order, t)
	}
	visit(loss)
	loss.Grad[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		if order[i].backward != nil {
			order[i].backward()
		}
	}
}

// Adam is the Adam optimizer over a parameter set.
type Adam struct {
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	params []*Tensor
	m, v   [][]float64
	t      int
}

// NewAdam creates an optimizer for the given parameters.
func NewAdam(lr float64, params ...*Tensor) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	for _, p := range params {
		a.m = append(a.m, make([]float64, len(p.Data)))
		a.v = append(a.v, make([]float64, len(p.Data)))
	}
	return a
}

// Step applies one update and zeroes gradients.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for pi, p := range a.params {
		for i, g := range p.Grad {
			a.m[pi][i] = a.Beta1*a.m[pi][i] + (1-a.Beta1)*g
			a.v[pi][i] = a.Beta2*a.v[pi][i] + (1-a.Beta2)*g*g
			mh := a.m[pi][i] / bc1
			vh := a.v[pi][i] / bc2
			p.Data[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
			p.Grad[i] = 0
		}
	}
}
