package core

import (
	"sort"

	"rtltimer/internal/dataset"
	"rtltimer/internal/metrics"
)

// Plan is a prediction- or label-guided synthesis optimization plan
// (paper §3.5.2).
type Plan struct {
	// Groups holds the group_path groups, most critical first: each
	// criticality group of signals expanded to its bit endpoint refs.
	Groups [][]string
	// Weights is the group_path weight of each group.
	Weights []float64
	// Retime holds the bit endpoint refs to retime: the top 5% by arrival.
	Retime []string
}

// PredictedPlan derives the plan from a prediction: signals are grouped by
// their ranking score, bits picked for retiming by predicted arrival.
func PredictedPlan(dd *dataset.DesignData, p *DesignPrediction) Plan {
	score := map[string]float64{}
	for _, sp := range p.Signals {
		score[sp.Name] = sp.RankScore
	}
	return newPlan(dd, score, p.BitRefs, p.BitAT)
}

// LabelPlan derives the plan from the design's ground-truth arrivals.
func LabelPlan(dd *dataset.DesignData) Plan {
	return newPlan(dd, dd.SignalLabels(), dd.EPRefs, dd.EPLabels)
}

// newPlan builds a plan from per-signal criticality scores and per-bit
// arrival scores aligned with bitRefs.
func newPlan(dd *dataset.DesignData, signalScore map[string]float64, bitRefs []string, bitScore []float64) Plan {
	// Sorted-name iteration: group assignment breaks score ties by
	// index, so the plan must not depend on map iteration order.
	sigs := make([]string, 0, len(signalScore))
	for sig := range signalScore {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	scores := make([]float64, 0, len(sigs))
	for _, sig := range sigs {
		scores = append(scores, signalScore[sig])
	}
	bitsOf := map[string][]string{}
	for _, sig := range dd.Signals() {
		for _, i := range sig.EPs {
			bitsOf[sig.Name] = append(bitsOf[sig.Name], dd.EPRefs[i])
		}
	}
	groups := make([][]string, metrics.NumGroups)
	for gi, idxs := range metrics.CriticalGroups(scores) {
		for _, si := range idxs {
			groups[gi] = append(groups[gi], bitsOf[sigs[si]]...)
		}
	}
	var retime []string
	for _, bi := range metrics.CriticalGroups(bitScore)[0] {
		retime = append(retime, bitRefs[bi])
	}
	return Plan{Groups: groups, Weights: []float64{5, 3, 2, 1}, Retime: retime}
}
