// Package metrics implements the evaluation metrics of the paper (§4.2):
// Pearson correlation R, determination coefficient R², mean absolute
// percentage error MAPE, and critical-level ranking coverage COVR over the
// paper's four criticality groups (top 5%, 5–40%, 40–70%, rest). It also
// provides the grouping helper used by the optimization flow and histogram
// utilities for the figures.
package metrics

import (
	"math"
	"sort"
)

// Pearson returns the correlation coefficient R between y and yhat.
// Returns 0 when either vector is constant or lengths mismatch.
func Pearson(y, yhat []float64) float64 {
	if len(y) != len(yhat) || len(y) < 2 {
		return 0
	}
	n := float64(len(y))
	var sy, syh float64
	for i := range y {
		sy += y[i]
		syh += yhat[i]
	}
	my, myh := sy/n, syh/n
	var cov, vy, vyh float64
	for i := range y {
		dy, dyh := y[i]-my, yhat[i]-myh
		cov += dy * dyh
		vy += dy * dy
		vyh += dyh * dyh
	}
	if vy == 0 || vyh == 0 {
		return 0
	}
	return cov / math.Sqrt(vy*vyh)
}

// R2 returns the determination coefficient of yhat as a predictor of y:
// 1 - SS_res/SS_tot. Can be negative for predictions worse than the mean.
func R2(y, yhat []float64) float64 {
	if len(y) != len(yhat) || len(y) < 2 {
		return 0
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ssRes, ssTot float64
	for i := range y {
		ssRes += (y[i] - yhat[i]) * (y[i] - yhat[i])
		ssTot += (y[i] - mean) * (y[i] - mean)
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}

// MAPE returns the mean absolute percentage error in percent. Samples with
// |y| below eps are skipped to avoid division blow-ups.
func MAPE(y, yhat []float64) float64 {
	const eps = 1e-9
	if len(y) != len(yhat) {
		return math.NaN()
	}
	var sum float64
	n := 0
	for i := range y {
		if math.Abs(y[i]) < eps {
			continue
		}
		sum += math.Abs(y[i]-yhat[i]) / math.Abs(y[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) * 100
}

// GroupBounds are the paper's criticality-group cut points: top 5% is
// group 1, 5–40% group 2, 40–70% group 3, remainder group 4.
var GroupBounds = []float64{0.05, 0.40, 0.70}

// NumGroups is the number of criticality groups.
const NumGroups = 4

// CriticalGroups partitions item indices into the four criticality groups
// by descending score (higher score = more critical = earlier group).
// Ties are broken by index for determinism.
func CriticalGroups(scores []float64) [][]int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	n := len(scores)
	cuts := make([]int, 0, len(GroupBounds)+1)
	for _, b := range GroupBounds {
		cuts = append(cuts, int(math.Ceil(b*float64(n))))
	}
	cuts = append(cuts, n)
	groups := make([][]int, NumGroups)
	start := 0
	for gi, end := range cuts {
		if end > n {
			end = n
		}
		if end < start {
			end = start
		}
		groups[gi] = append([]int(nil), idx[start:end]...)
		start = end
	}
	return groups
}

// GroupOf returns, per item, its criticality group index (0-based).
func GroupOf(scores []float64) []int {
	out := make([]int, len(scores))
	for gi, g := range CriticalGroups(scores) {
		for _, i := range g {
			out[i] = gi
		}
	}
	return out
}

// COVR computes the critical-level ranking coverage (paper §4.2): for each
// group, the fraction of the label group recovered by the predicted group,
// averaged over groups. labels and preds are criticality scores (higher =
// more critical).
func COVR(labels, preds []float64) float64 {
	if len(labels) != len(preds) || len(labels) == 0 {
		return 0
	}
	lg := CriticalGroups(labels)
	pg := CriticalGroups(preds)
	var total float64
	m := 0
	for gi := range lg {
		if len(lg[gi]) == 0 {
			continue
		}
		inPred := map[int]bool{}
		for _, i := range pg[gi] {
			inPred[i] = true
		}
		hit := 0
		for _, i := range lg[gi] {
			if inPred[i] {
				hit++
			}
		}
		total += float64(hit) / float64(len(lg[gi]))
		m++
	}
	if m == 0 {
		return 0
	}
	return total / float64(m) * 100
}

// Histogram bins values into n equal-width bins over [min, max] of the
// data, returning bin centers and counts (used for the Fig. 4/5(d)
// arrival-time distributions).
func Histogram(values []float64, n int) (centers []float64, counts []int) {
	if len(values) == 0 || n <= 0 {
		return nil, nil
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	w := (hi - lo) / float64(n)
	centers = make([]float64, n)
	counts = make([]int, n)
	for i := range centers {
		centers[i] = lo + w*(float64(i)+0.5)
	}
	for _, v := range values {
		b := int((v - lo) / w)
		if b >= n {
			b = n - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return centers, counts
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}
