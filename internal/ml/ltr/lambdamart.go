// Package ltr implements LambdaMART pairwise learning-to-rank on top of
// the gradient-boosted tree engine (paper §3.4.2): each design is a query,
// its signal-wise endpoints are the documents, and the criticality group
// levels are the relevance labels. Lambda gradients are weighted by the
// NDCG change of swapping each pair, so the model concentrates on ordering
// the critical head of the list correctly.
package ltr

import (
	"math"

	"rtltimer/internal/ml/tree"
)

// Query is one ranking group (a design) with per-item features and integer
// relevance labels (higher = more critical).
type Query struct {
	X   [][]float64
	Rel []int
}

// Options configures LambdaMART training. The paper uses 100 estimators
// with a depth cap of 30.
type Options struct {
	NumTrees     int
	MaxDepth     int
	LearningRate float64
	MinLeaf      int
	Sigma        float64 // logistic steepness
	Seed         int64
}

// DefaultOptions mirrors the paper's LambdaMART configuration.
func DefaultOptions() Options {
	return Options{NumTrees: 100, MaxDepth: 6, LearningRate: 0.10, MinLeaf: 4, Sigma: 1.0}
}

// Model is a trained ranker. Higher scores mean more critical.
type Model struct {
	reg *tree.Regressor
}

// Train fits the ranker on the given queries.
func Train(queries []Query, opts Options) *Model {
	// Flatten samples, remembering query boundaries.
	var X [][]float64
	var qStart []int
	for _, q := range queries {
		qStart = append(qStart, len(X))
		X = append(X, q.X...)
	}
	qStart = append(qStart, len(X))
	n := len(X)
	if n == 0 {
		return &Model{reg: tree.TrainL2(nil, nil, tree.Options{})}
	}

	// Per-query ideal DCG for normalization.
	gain := func(rel int) float64 { return math.Exp2(float64(rel)) - 1 }
	disc := func(rank int) float64 { return 1 / math.Log2(float64(rank)+2) }
	idealDCG := make([]float64, len(queries))
	for qi, q := range queries {
		rels := append([]int(nil), q.Rel...)
		// Sort descending.
		for i := range rels {
			for j := i + 1; j < len(rels); j++ {
				if rels[j] > rels[i] {
					rels[i], rels[j] = rels[j], rels[i]
				}
			}
		}
		for r, rel := range rels {
			idealDCG[qi] += gain(rel) * disc(r)
		}
		if idealDCG[qi] == 0 {
			idealDCG[qi] = 1
		}
	}

	sigma := opts.Sigma
	obj := func(pred []float64, grad, hess []float64) {
		for i := range grad {
			grad[i] = 0
			hess[i] = 1e-6
		}
		for qi, q := range queries {
			base := qStart[qi]
			m := len(q.Rel)
			if m < 2 {
				continue
			}
			// Current ranks by descending score.
			order := make([]int, m)
			for i := range order {
				order[i] = i
			}
			for i := 0; i < m; i++ {
				for j := i + 1; j < m; j++ {
					if pred[base+order[j]] > pred[base+order[i]] {
						order[i], order[j] = order[j], order[i]
					}
				}
			}
			rank := make([]int, m)
			for r, i := range order {
				rank[i] = r
			}
			for i := 0; i < m; i++ {
				for j := 0; j < m; j++ {
					if q.Rel[i] <= q.Rel[j] {
						continue
					}
					// i should rank above j.
					s := sigma * (pred[base+i] - pred[base+j])
					rho := 1.0 / (1.0 + math.Exp(s))
					delta := math.Abs((gain(q.Rel[i])-gain(q.Rel[j]))*
						(disc(rank[i])-disc(rank[j]))) / idealDCG[qi]
					lam := rho * delta
					grad[base+i] -= lam
					grad[base+j] += lam
					h := sigma * sigma * rho * (1 - rho) * delta
					hess[base+i] += h
					hess[base+j] += h
				}
			}
		}
	}
	topts := tree.Options{
		NumTrees:     opts.NumTrees,
		MaxDepth:     opts.MaxDepth,
		LearningRate: opts.LearningRate,
		MinLeaf:      opts.MinLeaf,
		Lambda:       1.0,
		Subsample:    1.0,
		Seed:         opts.Seed,
	}
	return &Model{reg: tree.Train(X, n, obj, topts)}
}

// ScoreAll scores a slice of items.
func (m *Model) ScoreAll(X [][]float64) []float64 { return m.reg.PredictAll(X) }
