package autodiff

import (
	"math"
	"math/rand"
	"testing"
)

// numGrad computes the numerical gradient of f with respect to t.Data[i].
func numGrad(t *Tensor, i int, f func() float64) float64 {
	const h = 1e-6
	orig := t.Data[i]
	t.Data[i] = orig + h
	fp := f()
	t.Data[i] = orig - h
	fm := f()
	t.Data[i] = orig
	return (fp - fm) / (2 * h)
}

// checkGrads verifies analytic vs numerical gradients of a scalar-valued
// computation over the given parameters.
func checkGrads(t *testing.T, params []*Tensor, compute func() *Tensor) {
	t.Helper()
	loss := compute()
	Backward(loss)
	for pi, p := range params {
		for i := range p.Data {
			want := numGrad(p, i, func() float64 { return compute().Data[0] })
			got := p.Grad[i]
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("param %d elem %d: grad %g, numerical %g", pi, i, got, want)
			}
		}
	}
}

func TestMatMulGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Param(3, 4, rng)
	b := Param(4, 2, rng)
	target := []float64{1, -1, 0.5}
	checkGrads(t, []*Tensor{a, b}, func() *Tensor {
		ones := New(2, 1)
		ones.Data[0], ones.Data[1] = 1, 1
		s := MatMul(MatMul(a, b), ones) // reduce cols
		return MSELossMasked(s, target, nil)
	})
}

func TestReLUTanhGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Param(2, 3, rng)
	w := Param(3, 1, rng)
	target := []float64{0.3, -0.7}
	checkGrads(t, []*Tensor{a, w}, func() *Tensor {
		return MSELossMasked(MatMul(ReLU(a), w), target, nil)
	})
}

func TestSoftmaxGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Param(2, 4, rng)
	w := Param(4, 1, rng)
	target := []float64{0.2, 0.8}
	checkGrads(t, []*Tensor{a, w}, func() *Tensor {
		s := SoftmaxRows(a)
		return MSELossMasked(MatMul(s, w), target, nil)
	})
}

func TestTransposeAndAttentionGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := Param(3, 2, rng)
	k := Param(3, 2, rng)
	w := Param(3, 1, rng)
	target := []float64{1, 0, -1}
	checkGrads(t, []*Tensor{q, k, w}, func() *Tensor {
		att := SoftmaxRows(MatMul(q, Transpose(k)))
		return MSELossMasked(MatMul(att, w), target, nil)
	})
}

func TestSparseAggGatherGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := Param(4, 3, rng)
	w := Param(3, 1, rng)
	edges := [][]int32{{}, {0}, {0, 1}, {1, 2}}
	target := []float64{0.5, -0.5}
	checkGrads(t, []*Tensor{h, w}, func() *Tensor {
		agg := SparseAgg(h, edges)
		sel := GatherRows(agg, []int{2, 3})
		return MSELossMasked(MatMul(sel, w), target, nil)
	})
}

func TestMeanRowsConcatGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Param(3, 2, rng)
	b := Param(1, 2, rng)
	w := Param(4, 1, rng)
	target := []float64{2}
	checkGrads(t, []*Tensor{a, b, w}, func() *Tensor {
		m := MeanRows(a)
		cc := ConcatCols(m, b)
		return MSELossMasked(MatMul(cc, w), target, nil)
	})
}

func TestAdamConvergesLinear(t *testing.T) {
	// Fit y = 2x1 - 3x2 + 1 with a linear model.
	rng := rand.New(rand.NewSource(7))
	n := 200
	X := New(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1, x2 := rng.NormFloat64(), rng.NormFloat64()
		X.Set(i, 0, x1)
		X.Set(i, 1, x2)
		y[i] = 2*x1 - 3*x2 + 1
	}
	w := Param(2, 1, rng)
	b := Param(1, 1, rng)
	opt := NewAdam(0.05, w, b)
	var last float64
	for it := 0; it < 400; it++ {
		pred := AddRow(MatMul(X, w), b)
		loss := MSELossMasked(pred, y, nil)
		last = loss.Data[0]
		Backward(loss)
		opt.Step()
	}
	if last > 1e-3 {
		t.Errorf("final loss %g, expected convergence", last)
	}
	if math.Abs(w.Data[0]-2) > 0.05 || math.Abs(w.Data[1]+3) > 0.05 || math.Abs(b.Data[0]-1) > 0.05 {
		t.Errorf("weights: %v bias %v", w.Data, b.Data)
	}
}
