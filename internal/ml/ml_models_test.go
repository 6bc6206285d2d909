// Package ml_test exercises the neural and ranking models end to end on
// synthetic tasks whose structure mirrors their use inside RTL-Timer.
package ml_test

import (
	"math"
	"math/rand"
	"testing"

	"rtltimer/internal/metrics"
	"rtltimer/internal/ml/gnn"
	"rtltimer/internal/ml/ltr"
	"rtltimer/internal/ml/mlp"
	"rtltimer/internal/ml/transformer"
)

func TestMLPGroupMax(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 2000
	X := make([][]float64, n)
	truth := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64() * 3, rng.Float64()}
		truth[i] = X[i][0]
	}
	var groups [][]int
	var labels []float64
	for s := 0; s+5 <= n; s += 5 {
		g := []int{s, s + 1, s + 2, s + 3, s + 4}
		lab := 0.0
		for _, i := range g {
			if truth[i] > lab {
				lab = truth[i]
			}
		}
		groups = append(groups, g)
		labels = append(labels, lab)
	}
	m := mlp.TrainGroupMax(X, groups, labels, mlp.Options{Hidden: []int{32}, Epochs: 60, LR: 5e-3, BatchRows: 512, Seed: 2})
	var se, cnt float64
	for gi, g := range groups {
		best := math.Inf(-1)
		for _, i := range g {
			if p := m.Predict(X[i]); p > best {
				best = p
			}
		}
		se += (best - labels[gi]) * (best - labels[gi])
		cnt++
	}
	if rmse := math.Sqrt(se / cnt); rmse > 0.4 {
		t.Errorf("group-max RMSE = %f", rmse)
	}
}

func TestLambdaMARTOrdersItems(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var queries []ltr.Query
	for q := 0; q < 30; q++ {
		nItems := 30 + rng.Intn(20)
		q := ltr.Query{}
		for i := 0; i < nItems; i++ {
			x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			// True criticality driven by features 0 and 1.
			score := 2*x[0] + x[1]
			rel := 0
			switch {
			case score > 2.2:
				rel = 3
			case score > 1.6:
				rel = 2
			case score > 1.0:
				rel = 1
			}
			q.X = append(q.X, x)
			q.Rel = append(q.Rel, rel)
		}
		queries = append(queries, q)
	}
	model := ltr.Train(queries, ltr.Options{NumTrees: 40, MaxDepth: 4, LearningRate: 0.15, MinLeaf: 3, Sigma: 1, Seed: 3})
	// Evaluate pair accuracy on a fresh query.
	testQ := queries[0]
	scores := model.ScoreAll(testQ.X)
	rels := make([]float64, len(testQ.Rel))
	for i, r := range testQ.Rel {
		rels[i] = float64(r)
	}
	if pa := metrics.PairAccuracy(rels, scores); pa < 0.8 {
		t.Errorf("pair accuracy = %f, want > 0.8", pa)
	}
}

func TestGNNLearnsDepth(t *testing.T) {
	// Synthetic "graphs" where the label equals the node's level: the GNN
	// must learn to count hops, which mean aggregation supports weakly —
	// we only require a positive correlation (the paper's GNN baseline is
	// intentionally weak on this task).
	rng := rand.New(rand.NewSource(4))
	var graphs []*gnn.GraphData
	for d := 0; d < 4; d++ {
		n := 120
		g := &gnn.GraphData{}
		levels := make([]float64, n)
		for i := 0; i < n; i++ {
			feat := []float64{rng.Float64(), 1}
			g.Feats = append(g.Feats, feat)
			if i < 10 {
				g.Fanins = append(g.Fanins, nil)
				levels[i] = 0
				continue
			}
			k := 1 + rng.Intn(2)
			var es []int32
			lv := 0.0
			for j := 0; j < k; j++ {
				e := rng.Intn(i)
				es = append(es, int32(e))
				if levels[e] > lv {
					lv = levels[e]
				}
			}
			g.Fanins = append(g.Fanins, es)
			levels[i] = lv + 1
		}
		for i := n - 30; i < n; i++ {
			g.EPRows = append(g.EPRows, i)
			g.Labels = append(g.Labels, levels[i]*0.1)
		}
		graphs = append(graphs, g)
	}
	m := gnn.Train(graphs, gnn.Options{Hidden: 12, Layers: 3, Epochs: 60, LR: 5e-3, Seed: 4})
	pred := m.Predict(graphs[0])
	if r := metrics.Pearson(graphs[0].Labels, pred); r < 0.3 {
		t.Errorf("GNN train R = %f, want at least weakly positive", r)
	}
}

func TestTransformerLearnsPathLength(t *testing.T) {
	// Label = group max of (path length * 0.1): sequence modeling suffices.
	rng := rand.New(rand.NewSource(5))
	var samples []transformer.Sample
	var groups [][]int
	var labels []float64
	for g := 0; g < 150; g++ {
		var grp []int
		lab := 0.0
		for k := 0; k < 3; k++ {
			L := 3 + rng.Intn(12)
			s := transformer.Sample{Global: []float64{float64(L) / 10}}
			for i := 0; i < L; i++ {
				s.Seq = append(s.Seq, []float64{1, rng.Float64()})
			}
			v := float64(L) * 0.1
			if v > lab {
				lab = v
			}
			grp = append(grp, len(samples))
			samples = append(samples, s)
		}
		groups = append(groups, grp)
		labels = append(labels, lab)
	}
	m := transformer.Train(samples, groups, labels, transformer.Options{Dim: 8, MaxLen: 16, Epochs: 6, LR: 5e-3, BatchGroups: 16, Seed: 5})
	// Group-max predictions should correlate with labels.
	var preds []float64
	for _, grp := range groups {
		best := math.Inf(-1)
		for _, si := range grp {
			if p := m.Predict(&samples[si]); p > best {
				best = p
			}
		}
		preds = append(preds, best)
	}
	if r := metrics.Pearson(labels, preds); r < 0.6 {
		t.Errorf("transformer R = %f, want > 0.6", r)
	}
}
