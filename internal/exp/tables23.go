package exp

import (
	"fmt"
	"math"
	"sort"

	"rtltimer/internal/bog"
	"rtltimer/internal/features"
	"rtltimer/internal/metrics"
)

// Table2 reproduces the feature summary: per feature, the average Pearson
// correlation between slowest-path feature values and endpoint arrival-time
// labels across all designs (paper Table 2's Avg. R column).
func (s *Suite) Table2() (*Table, error) {
	data, err := s.Data()
	if err != nil {
		return nil, err
	}
	// Pool the slowest-path feature vectors of every labeled endpoint
	// across all designs: design-level features only discriminate across
	// designs, and pooling mirrors how the models consume the features.
	var rows2 [][]float64
	var y []float64
	for _, dd := range data {
		rep := dd.Reps[bog.SOG]
		for gi, g := range rep.Groups {
			rows2 = append(rows2, rep.X[g[0]])
			y = append(y, dd.EPLabels[gi])
		}
	}
	names := features.FeatureNames()
	sums := map[string][]float64{}
	col := make([]float64, len(rows2))
	for fi, name := range names {
		for i, row := range rows2 {
			col[i] = row[fi]
		}
		if r := metrics.Pearson(y, col); !math.IsNaN(r) {
			sums[name] = append(sums[name], math.Abs(r))
		}
	}
	// Group rows as in the paper: design / cone / path levels.
	rows := []struct {
		level   string
		feature string
		keys    []string
	}{
		{"Design", "Rank level / % of endpoint rank", []string{"rank_pct"}},
		{"Design", "# sequential cells", []string{"log_seq_cells"}},
		{"Design", "# combinational cells", []string{"log_comb_cells"}},
		{"Design", "# total cells", []string{"log_total_cells"}},
		{"Cone", "# driving reg of input cone", []string{"log_driving_regs"}},
		{"Cone", "# cone nodes", []string{"log_cone_nodes"}},
		{"Path", "Arrival time by STA on R", []string{"ep_arrival_sta"}},
		{"Path", "# of level of the timing path", []string{"path_levels"}},
		{"Path", "# of operators", []string{"n_and", "n_or", "n_xor", "n_not", "n_mux"}},
		{"Path", "Fanout (sum/avg/std)", []string{"fanout_sum", "fanout_avg", "fanout_std"}},
		{"Path", "Load capacitance (sum/avg/std)", []string{"load_sum", "load_avg", "load_std"}},
		{"Path", "Slew (sum/avg/std)", []string{"slew_sum", "slew_avg", "slew_std"}},
	}
	t := &Table{
		Title:  "Table 2: feature summary (avg |R| vs endpoint arrival label, SOG)",
		Header: []string{"Type", "Feature", "Avg.R"},
	}
	for _, row := range rows {
		var vals []float64
		for _, k := range row.keys {
			vals = append(vals, sums[k]...)
		}
		t.Rows = append(t.Rows, []string{row.level, row.feature, fmtF(metrics.Mean(vals), 2)})
	}
	return t, nil
}

// Table3 reproduces the benchmark-information table: per family, design
// count, gate-count range and endpoint-count range.
func (s *Suite) Table3() (*Table, error) {
	data, err := s.Data()
	if err != nil {
		return nil, err
	}
	type famStats struct {
		n                  int
		hdl                string
		minGates, maxGates int
		minEPs, maxEPs     int
	}
	fams := map[string]*famStats{}
	var order []string
	for _, dd := range data {
		f, ok := fams[dd.Spec.Family]
		if !ok {
			f = &famStats{hdl: dd.Spec.HDL, minGates: 1 << 30, minEPs: 1 << 30}
			fams[dd.Spec.Family] = f
			order = append(order, dd.Spec.Family)
		}
		f.n++
		gates := dd.Synth.Netlist.CombGates() + dd.Synth.Netlist.SeqGates()
		eps := len(dd.EPRefs)
		if gates < f.minGates {
			f.minGates = gates
		}
		if gates > f.maxGates {
			f.maxGates = gates
		}
		if eps < f.minEPs {
			f.minEPs = eps
		}
		if eps > f.maxEPs {
			f.maxEPs = eps
		}
	}
	sort.Strings(order)
	t := &Table{
		Title:  "Table 3: benchmark design information",
		Header: []string{"Benchmarks", "#Designs", "Gates", "Endpoints", "HDL Type"},
		Notes:  []string{"designs are scaled-down structural equivalents; see internal/designs"},
	}
	for _, fam := range order {
		f := fams[fam]
		t.Rows = append(t.Rows, []string{
			fam,
			fmt.Sprintf("%d", f.n),
			fmt.Sprintf("%d - %d", f.minGates, f.maxGates),
			fmt.Sprintf("%d - %d", f.minEPs, f.maxEPs),
			f.hdl,
		})
	}
	return t, nil
}

// FeatureImportance reports the ensemble model's gain importance over its
// input features (supports the §4.3 discussion: the cross-representation
// average dominates; SOG and AIG carry more weight than AIMG/XAG).
func (s *Suite) FeatureImportance() (*Table, error) {
	model, err := s.full()
	if err != nil {
		return nil, err
	}
	names := []string{"pred_SOG", "pred_AIG", "pred_AIMG", "pred_XAG",
		"pred_max", "pred_min", "pred_avg", "pred_std",
		"rank_pct", "log_driving_regs", "log_cone_nodes",
		"log_seq_cells", "log_comb_cells", "log_total_cells", "pseudo_at"}
	imp := model.Ensemble.GainImportance()
	t := &Table{
		Title:  "Ensemble feature importance (gain share)",
		Header: []string{"Feature", "Importance"},
	}
	for i, n := range names {
		if i < len(imp) {
			t.Rows = append(t.Rows, []string{n, fmtF(imp[i], 3)})
		}
	}
	return t, nil
}
