// Package tree implements histogram-based gradient-boosted regression
// trees with pluggable second-order objectives. It powers three of
// RTL-Timer's models: the lightweight bit-wise arrival-time regressor
// (with the paper's grouped max-arrival-time loss, Eq. 3), the signal and
// design-level regressors (plain L2), and — through package ltr — the
// LambdaMART ranking model.
package tree

import (
	"math/rand"
	"sort"
)

// Options configures training.
type Options struct {
	NumTrees     int     // boosting rounds (paper: 100)
	MaxDepth     int     // maximum tree depth
	LearningRate float64 // shrinkage
	MinLeaf      int     // minimum samples per leaf
	Lambda       float64 // L2 regularization on leaf values
	Subsample    float64 // per-tree row subsampling in (0, 1]
	Seed         int64
	BaseScore    float64 // initial prediction
}

// DefaultOptions mirrors the paper's XGBoost configuration scaled to this
// dataset: 100 estimators with a generous depth cap.
func DefaultOptions() Options {
	return Options{
		NumTrees:     100,
		MaxDepth:     8,
		LearningRate: 0.12,
		MinLeaf:      8,
		Lambda:       1.0,
		Subsample:    0.85,
	}
}

// Objective fills grad/hess for the current predictions (second-order
// boosting interface, like XGBoost).
type Objective func(pred []float64, grad, hess []float64)

// L2Objective is squared error against y.
func L2Objective(y []float64) Objective {
	return func(pred []float64, grad, hess []float64) {
		for i := range pred {
			grad[i] = 2 * (pred[i] - y[i])
			hess[i] = 2
		}
	}
}

// GroupMaxObjective implements the register-oriented max-arrival-time loss
// (paper Eq. 3): each group holds the path samples of one endpoint, the
// endpoint prediction is the max over its samples, and the squared error
// against the endpoint label back-propagates through the argmax sample
// only (the subgradient of max).
func GroupMaxObjective(groups [][]int, labels []float64) Objective {
	return func(pred []float64, grad, hess []float64) {
		for i := range grad {
			grad[i] = 0
			hess[i] = 1e-6 // keep leaves defined for untouched samples
		}
		for gi, g := range groups {
			if len(g) == 0 {
				continue
			}
			arg := g[0]
			for _, s := range g[1:] {
				if pred[s] > pred[arg] {
					arg = s
				}
			}
			grad[arg] = 2 * (pred[arg] - labels[gi])
			hess[arg] = 2
		}
	}
}

type node struct {
	feat        int32
	thresh      float64 // raw-value threshold: x <= thresh goes left
	bin         uint16  // binned threshold used during training
	left, right int32   // -1 on leaves
	leaf        float64
}

// Regressor is a trained GBT ensemble.
type Regressor struct {
	opts      Options
	trees     [][]node
	cuts      [][]float64 // per-feature bin upper edges
	nFeatures int
	gainImp   []float64
}

const maxBins = 256

// buildCuts computes per-feature quantile bin edges.
func buildCuts(X [][]float64, nf int) [][]float64 {
	n := len(X)
	cuts := make([][]float64, nf)
	vals := make([]float64, 0, n)
	for f := 0; f < nf; f++ {
		vals = vals[:0]
		for i := 0; i < n; i++ {
			vals = append(vals, X[i][f])
		}
		sort.Float64s(vals)
		// Unique values.
		uniq := vals[:0]
		for i, v := range vals {
			if i == 0 || v != uniq[len(uniq)-1] {
				uniq = append(uniq, v)
			}
		}
		var c []float64
		if len(uniq) <= maxBins-1 {
			c = append([]float64(nil), uniq...)
		} else {
			c = make([]float64, 0, maxBins-1)
			for b := 1; b < maxBins; b++ {
				c = append(c, uniq[len(uniq)*b/maxBins])
			}
		}
		cuts[f] = c
	}
	return cuts
}

func binValue(cuts []float64, v float64) uint16 {
	// First cut index with cuts[i] >= v.
	lo, hi := 0, len(cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if cuts[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint16(lo)
}

// Train fits an ensemble with a custom objective on n samples with rows X.
func Train(X [][]float64, n int, obj Objective, opts Options) *Regressor {
	if len(X) != n || n == 0 {
		return &Regressor{opts: opts}
	}
	nf := len(X[0])
	r := &Regressor{opts: opts, nFeatures: nf, gainImp: make([]float64, nf)}
	r.cuts = buildCuts(X, nf)
	// Pre-bin columns.
	binned := make([][]uint16, nf)
	for f := 0; f < nf; f++ {
		col := make([]uint16, n)
		for i := 0; i < n; i++ {
			col[i] = binValue(r.cuts[f], X[i][f])
		}
		binned[f] = col
	}
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = opts.BaseScore
	}
	grad := make([]float64, n)
	hess := make([]float64, n)
	rng := rand.New(rand.NewSource(opts.Seed))
	b := &builder{r: r, binned: binned, grad: grad, hess: hess}
	for t := 0; t < opts.NumTrees; t++ {
		obj(pred, grad, hess)
		idx := make([]int, 0, n)
		if opts.Subsample < 1 {
			for i := 0; i < n; i++ {
				if rng.Float64() < opts.Subsample {
					idx = append(idx, i)
				}
			}
			if len(idx) < 2 {
				continue
			}
		} else {
			for i := 0; i < n; i++ {
				idx = append(idx, i)
			}
		}
		b.nodes = b.nodes[:0]
		b.build(idx, 0)
		tree := append([]node(nil), b.nodes...)
		r.trees = append(r.trees, tree)
		// Update predictions for all samples using binned features.
		for i := 0; i < n; i++ {
			pred[i] += opts.LearningRate * r.scoreBinned(tree, binned, i)
		}
	}
	return r
}

// TrainL2 fits a plain squared-error regressor.
func TrainL2(X [][]float64, y []float64, opts Options) *Regressor {
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	if len(y) > 0 {
		mean /= float64(len(y))
	}
	opts.BaseScore = mean
	return Train(X, len(X), L2Objective(y), opts)
}

type builder struct {
	r      *Regressor
	binned [][]uint16
	grad   []float64
	hess   []float64
	nodes  []node
}

// build grows a tree over sample indices, returning the node index.
func (b *builder) build(idx []int, depth int) int32 {
	var G, H float64
	for _, i := range idx {
		G += b.grad[i]
		H += b.hess[i]
	}
	opts := b.r.opts
	leafVal := -G / (H + opts.Lambda)
	me := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{feat: -1, left: -1, right: -1, leaf: leafVal})
	if depth >= opts.MaxDepth || len(idx) < 2*opts.MinLeaf {
		return me
	}
	// Best split over all features via bin histograms.
	bestGain := 1e-12
	bestFeat, bestBin := -1, uint16(0)
	parentScore := G * G / (H + opts.Lambda)
	var gHist, hHist [maxBins]float64
	var cHist [maxBins]int
	for f := 0; f < b.r.nFeatures; f++ {
		nb := len(b.r.cuts[f]) + 1
		if nb < 2 {
			continue
		}
		for i := 0; i < nb; i++ {
			gHist[i], hHist[i], cHist[i] = 0, 0, 0
		}
		col := b.binned[f]
		for _, i := range idx {
			bin := col[i]
			gHist[bin] += b.grad[i]
			hHist[bin] += b.hess[i]
			cHist[bin]++
		}
		var gl, hl float64
		cl := 0
		for bin := 0; bin < nb-1; bin++ {
			gl += gHist[bin]
			hl += hHist[bin]
			cl += cHist[bin]
			if cl < opts.MinLeaf || len(idx)-cl < opts.MinLeaf {
				continue
			}
			gr, hr := G-gl, H-hl
			gain := gl*gl/(hl+opts.Lambda) + gr*gr/(hr+opts.Lambda) - parentScore
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestBin = uint16(bin)
			}
		}
	}
	if bestFeat < 0 {
		return me
	}
	b.r.gainImp[bestFeat] += bestGain
	// Partition.
	col := b.binned[bestFeat]
	var left, right []int
	for _, i := range idx {
		if col[i] <= bestBin {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	b.nodes[me].feat = int32(bestFeat)
	b.nodes[me].bin = bestBin
	b.nodes[me].thresh = b.r.cuts[bestFeat][bestBin]
	l := b.build(left, depth+1)
	r := b.build(right, depth+1)
	b.nodes[me].left = l
	b.nodes[me].right = r
	return me
}

func (r *Regressor) scoreBinned(tree []node, binned [][]uint16, sample int) float64 {
	cur := int32(0)
	for {
		nd := &tree[cur]
		if nd.left < 0 {
			return nd.leaf
		}
		if binned[nd.feat][sample] <= nd.bin {
			cur = nd.left
		} else {
			cur = nd.right
		}
	}
}

// Predict evaluates the ensemble on a raw feature vector.
func (r *Regressor) Predict(x []float64) float64 {
	out := r.opts.BaseScore
	for _, tree := range r.trees {
		cur := int32(0)
		for {
			nd := &tree[cur]
			if nd.left < 0 {
				out += r.opts.LearningRate * nd.leaf
				break
			}
			if x[nd.feat] <= nd.thresh {
				cur = nd.left
			} else {
				cur = nd.right
			}
		}
	}
	return out
}

// PredictAll evaluates many rows.
func (r *Regressor) PredictAll(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = r.Predict(x)
	}
	return out
}

// GainImportance returns per-feature cumulative split gain, normalized to
// sum to 1 (0s when untrained). Used for the paper's feature-importance
// discussion (§4.3).
func (r *Regressor) GainImportance() []float64 {
	out := make([]float64, len(r.gainImp))
	var total float64
	for _, g := range r.gainImp {
		total += g
	}
	if total == 0 {
		return out
	}
	for i, g := range r.gainImp {
		out[i] = g / total
	}
	return out
}
