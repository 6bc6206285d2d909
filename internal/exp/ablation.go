package exp

import (
	"rtltimer/internal/bog"
	"rtltimer/internal/dataset"
	"rtltimer/internal/designs"
	"rtltimer/internal/metrics"
)

// AblationSampling sweeps the per-endpoint random-path sample budget
// (paper §3.2 sets K proportional to the driving-register count; this
// study quantifies the choice): K = 0 reduces to the slowest-path-only
// ablation; larger K adds more of the input cone.
func (s *Suite) AblationSampling() (*Table, error) {
	budgets := []struct {
		name     string
		min, max int
	}{
		{"slowest only (K=0)", 0, 0},
		{"K<=2", 1, 2},
		{"K<=6", 2, 6},
		{"K<=12 (default)", 2, 12},
		{"K<=24", 4, 24},
	}
	t := &Table{
		Title:  "Ablation: random-path sample budget vs bit-wise accuracy",
		Header: []string{"Budget", "Avg bit R", "Avg bit MAPE(%)", "Avg COVR(%)"},
		Notes:  []string{"3-fold CV on a 9-design subset; K scales with driving registers, clamped to the budget"},
	}
	subset := designs.All()[:9]
	for _, b := range budgets {
		// K = 0 is modeled by NoSampling (groups truncated to the slowest
		// path); the dataset always materializes at least one sample.
		opts := dataset.BuildOptions{Scale: s.Cfg.Scale, MinSamples: max(1, b.min), MaxSamples: max(1, b.max), Engine: s.eng}
		data, err := dataset.BuildAll(subset, opts)
		if err != nil {
			return nil, err
		}
		folds := s.folds(data, 3)
		preds, err := s.crossPredict(data, folds, s.coreOptions(bog.Variants(), b.max == 0))
		if err != nil {
			return nil, err
		}
		var rs, mapes, covrs []float64
		for _, f := range folds {
			for _, d := range f.test {
				r, mape, covr := bitEval(data[d], preds[d].BitAT)
				rs = append(rs, r)
				mapes = append(mapes, mape)
				covrs = append(covrs, covr)
			}
		}
		t.Rows = append(t.Rows, []string{b.name, fmtF(metrics.Mean(rs), 3), fmtF(metrics.Mean(mapes), 0), fmtF(metrics.Mean(covrs), 0)})
	}
	return t, nil
}

// AblationEnsembleSize compares ensembles built from 1..4 representations
// (in paper order), quantifying the marginal value of each added BOG
// variant (§4.3's "omitting any representation decreases accuracy").
func (s *Suite) AblationEnsembleSize() (*Table, error) {
	variants := bog.Variants()
	t := &Table{
		Title:  "Ablation: ensemble size (representations added in paper order)",
		Header: []string{"Representations", "Avg bit R", "Std bit R"},
	}
	for k := 1; k <= len(variants); k++ {
		a, err := s.scoreReps(variants[:k])
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{repsName(variants[:k]), fmtF(metrics.Mean(a.bitR), 3), fmtF(metrics.Std(a.bitR), 3)})
	}
	return t, nil
}
