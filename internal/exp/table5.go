package exp

import (
	"rtltimer/internal/bog"
	"rtltimer/internal/core"
	"rtltimer/internal/metrics"
)

// repScores holds the held-out accuracy of one cross-validated
// representation configuration, per design in fold order.
type repScores struct {
	bitR, sigR, covr []float64
}

// scoreReps scores the cross-validated RTL-Timer on reps: bit-wise R
// against the first representation's labels, signal-wise R, and the
// ranking COVR.
func (s *Suite) scoreReps(reps []bog.Variant) (repScores, error) {
	var a repScores
	data, err := s.Data()
	if err != nil {
		return a, err
	}
	cv, err := s.crossValidate(reps, false)
	if err != nil {
		return a, err
	}
	for _, f := range s.folds(data, s.Cfg.Folds) {
		for _, d := range f.test {
			p := cv[d]
			a.bitR = append(a.bitR, metrics.Pearson(data[d].EPLabels, p.BitAT))
			sl, sp, ranks := core.SignalLabelVectors(data[d], p)
			a.sigR = append(a.sigR, metrics.Pearson(sl, sp))
			a.covr = append(a.covr, metrics.COVR(sl, ranks))
		}
	}
	return a, nil
}

// Table5 reproduces the representation-variant comparison: single-
// representation RTL-Timer models (SOG, AIG, AIMG, XAG) versus the 4-way
// ensemble, reporting the mean and standard deviation across designs of
// bit-wise R, signal-wise R and COVR — the paper's headline being that the
// ensemble raises accuracy while slashing cross-design variance.
func (s *Suite) Table5() (*Table, error) {
	variants := bog.Variants()
	var accs []repScores
	for _, reps := range [][]bog.Variant{{bog.SOG}, {bog.AIG}, {bog.AIMG}, {bog.XAG}, variants} {
		a, err := s.scoreReps(reps)
		if err != nil {
			return nil, err
		}
		accs = append(accs, a)
	}

	t := &Table{
		Title:  "Table 5: representation variants and ensemble effect",
		Header: []string{"Metric", "SOG", "AIG", "AIMG", "XAG", "Ensemble"},
	}
	row := func(name string, get func(a repScores) []float64, scale int) {
		cells := []string{name}
		for _, a := range accs {
			cells = append(cells, fmtF(metrics.Mean(get(a)), scale))
		}
		t.Rows = append(t.Rows, cells)
		cells = []string{name + " (std)"}
		for _, a := range accs {
			cells = append(cells, fmtF(metrics.Std(get(a)), scale))
		}
		t.Rows = append(t.Rows, cells)
	}
	row("Bit-wise Avg.R", func(a repScores) []float64 { return a.bitR }, 2)
	row("Signal-wise Avg.R", func(a repScores) []float64 { return a.sigR }, 2)
	row("Signal-wise Avg.COVR", func(a repScores) []float64 { return a.covr }, 0)
	return t, nil
}
