package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPearsonPerfect(t *testing.T) {
	y := []float64{1, 2, 3, 4, 5}
	if r := Pearson(y, y); !almostEq(r, 1, 1e-12) {
		t.Errorf("R(y,y) = %f", r)
	}
	neg := []float64{5, 4, 3, 2, 1}
	if r := Pearson(y, neg); !almostEq(r, -1, 1e-12) {
		t.Errorf("R(y,-y) = %f", r)
	}
	// Scale/shift invariance.
	scaled := []float64{10, 20, 30, 40, 50}
	if r := Pearson(y, scaled); !almostEq(r, 1, 1e-12) {
		t.Errorf("R scale = %f", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if r := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Errorf("constant y: %f", r)
	}
	if r := Pearson([]float64{1}, []float64{2}); r != 0 {
		t.Errorf("single sample: %f", r)
	}
	if r := Pearson([]float64{1, 2}, []float64{1, 2, 3}); r != 0 {
		t.Errorf("length mismatch: %f", r)
	}
}

func TestR2(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if r := R2(y, y); !almostEq(r, 1, 1e-12) {
		t.Errorf("perfect R2 = %f", r)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if r := R2(y, mean); !almostEq(r, 0, 1e-12) {
		t.Errorf("mean-predictor R2 = %f", r)
	}
	bad := []float64{10, -10, 10, -10}
	if r := R2(y, bad); r >= 0 {
		t.Errorf("bad predictor R2 = %f, want negative", r)
	}
}

func TestMAPE(t *testing.T) {
	y := []float64{100, 200}
	yh := []float64{110, 180}
	if m := MAPE(y, yh); !almostEq(m, 10, 1e-9) {
		t.Errorf("MAPE = %f, want 10", m)
	}
	// Zeros are skipped.
	if m := MAPE([]float64{0, 100}, []float64{5, 100}); !almostEq(m, 0, 1e-9) {
		t.Errorf("MAPE with zero label = %f", m)
	}
}

func TestCriticalGroupsSizes(t *testing.T) {
	scores := make([]float64, 100)
	for i := range scores {
		scores[i] = float64(i)
	}
	g := CriticalGroups(scores)
	if len(g[0]) != 5 || len(g[1]) != 35 || len(g[2]) != 30 || len(g[3]) != 30 {
		t.Errorf("group sizes: %d %d %d %d", len(g[0]), len(g[1]), len(g[2]), len(g[3]))
	}
	// Group 1 must hold the top scores (95..99).
	for _, i := range g[0] {
		if scores[i] < 95 {
			t.Errorf("top group contains score %f", scores[i])
		}
	}
	// Groups partition all indices.
	seen := map[int]bool{}
	for _, grp := range g {
		for _, i := range grp {
			if seen[i] {
				t.Fatalf("index %d in two groups", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 100 {
		t.Errorf("partition covers %d items", len(seen))
	}
}

func TestCOVRBounds(t *testing.T) {
	scores := make([]float64, 60)
	for i := range scores {
		scores[i] = rand.New(rand.NewSource(1)).Float64() + float64(i)
	}
	if c := COVR(scores, scores); !almostEq(c, 100, 1e-9) {
		t.Errorf("perfect COVR = %f", c)
	}
	// Reversed ranking: top-5% and mid groups rarely intersect.
	rev := make([]float64, len(scores))
	for i := range scores {
		rev[i] = -scores[i]
	}
	if c := COVR(scores, rev); c > 40 {
		t.Errorf("reversed COVR = %f, want low", c)
	}
}

func TestCOVRQuickBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		labels := make([]float64, n)
		preds := make([]float64, n)
		for i := range labels {
			labels[i] = rng.Float64()
			preds[i] = rng.Float64()
		}
		c := COVR(labels, preds)
		return c >= 0 && c <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	centers, counts := Histogram([]float64{0, 0.1, 0.9, 1.0}, 2)
	if len(centers) != 2 || len(counts) != 2 {
		t.Fatal("bins")
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Errorf("counts: %v", counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 4 {
		t.Errorf("histogram loses samples: %d", total)
	}
}

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Errorf("mean = %f", m)
	}
	if s := Std(xs); !almostEq(s, 2, 1e-12) {
		t.Errorf("std = %f", s)
	}
}
