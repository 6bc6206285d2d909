package exp

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/core"
	"rtltimer/internal/dataset"
)

// sharedSuite is reused across tests to amortize dataset construction and
// cross-validation.
var sharedSuite = NewSuite(FastConfig())

func parseCell(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.TrimSuffix(cell, "%")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func findRow(t *testing.T, tab *Table, key string) []string {
	t.Helper()
	for _, row := range tab.Rows {
		for _, c := range row {
			if c == key {
				return row
			}
		}
	}
	t.Fatalf("row %q not found in %s", key, tab.Title)
	return nil
}

func TestTable2FeatureCorrelations(t *testing.T) {
	tab, err := sharedSuite.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// Path-level structural features must correlate meaningfully, as in
	// the paper (R between ~0.3 and ~0.6 per feature).
	row := findRow(t, tab, "# of level of the timing path")
	if r := parseCell(t, row[2]); r < 0.2 {
		t.Errorf("path level correlation %f too low", r)
	}
	row = findRow(t, tab, "Arrival time by STA on R")
	if r := parseCell(t, row[2]); r < 0.2 {
		t.Errorf("pseudo-STA correlation %f too low", r)
	}
	t.Log("\n" + tab.Render())
}

func TestTable3Families(t *testing.T) {
	tab, err := sharedSuite.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("families: %d", len(tab.Rows))
	}
	counts := map[string]string{}
	for _, row := range tab.Rows {
		counts[row[0]] = row[1]
	}
	if counts["ITC99"] != "6" || counts["OpenCores"] != "4" ||
		counts["Chipyard"] != "3" || counts["VexRiscv"] != "8" {
		t.Errorf("family mix: %v (paper Table 3: 6/4/3/8)", counts)
	}
	t.Log("\n" + tab.Render())
}

func TestTable4FineGrainedShape(t *testing.T) {
	tab, err := sharedSuite.Table4FineGrained()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
	rt := findRow(t, tab, "RTL-Timer")
	rtR := parseCell(t, rt[2])
	if rtR < 0.55 {
		t.Errorf("RTL-Timer bit-wise R = %.2f, want > 0.55", rtR)
	}
	// RTL-Timer must beat the customized GNN baseline (paper: 0.88 vs 0.25).
	gnnRow := findRow(t, tab, "Customized GNN")
	if gnnR := parseCell(t, gnnRow[2]); gnnR >= rtR {
		t.Errorf("GNN baseline (%.2f) should not beat RTL-Timer (%.2f)", gnnR, rtR)
	}
	// Signal-level: removing bit-wise modeling must hurt regression R
	// (paper: 0.89 -> 0.56).
	sigReg := findRow(t, tab, "RTL-Timer (regression)")
	noBit := findRow(t, tab, "Regression w/o bit-wise")
	if parseCell(t, noBit[2]) > parseCell(t, sigReg[2])+0.1 {
		t.Errorf("no-bit-wise ablation (%s) should not beat RTL-Timer (%s)", noBit[2], sigReg[2])
	}
	// Ranking with LTR should not trail the no-LTR variant by much
	// (paper: 80 vs 71 in favor of LTR).
	rank := findRow(t, tab, "RTL-Timer (ranking)")
	noLTR := findRow(t, tab, "RTL-Timer w/o LTR")
	if parseCell(t, rank[4]) < parseCell(t, noLTR[4])-10 {
		t.Errorf("LTR COVR (%s) far below regression-rank COVR (%s)", rank[4], noLTR[4])
	}
}

func TestTable4OverallShape(t *testing.T) {
	tab, err := sharedSuite.Table4Overall()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
	// TNS is easier than WNS for RTL-Timer in the paper (0.98 vs 0.91);
	// we only require both to be strong and at least as good as SNS-style.
	var rtWNS, rtTNS, snsWNS float64
	for _, row := range tab.Rows {
		if row[1] == "RTL-Timer" && row[0] == "WNS" {
			rtWNS = parseCell(t, row[2])
		}
		if row[1] == "RTL-Timer" && row[0] == "TNS" {
			rtTNS = parseCell(t, row[2])
		}
		if row[1] == "SNS-style" && row[0] == "WNS" {
			snsWNS = parseCell(t, row[2])
		}
	}
	if rtWNS < 0.6 || rtTNS < 0.6 {
		t.Errorf("overall R: WNS %.2f TNS %.2f, want both > 0.6", rtWNS, rtTNS)
	}
	if rtWNS < snsWNS-0.05 {
		t.Errorf("RTL-Timer WNS R (%.2f) below SNS-style baseline (%.2f)", rtWNS, snsWNS)
	}
}

func TestTable5EnsembleReducesVariance(t *testing.T) {
	tab, err := sharedSuite.Table5()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
	// Ensemble bit-wise R must be >= every single representation, and the
	// std must be <= the worst single-rep std (paper Table 5's headline).
	var avg, std []float64
	for _, row := range tab.Rows {
		if row[0] == "Bit-wise Avg.R" {
			for _, c := range row[1:] {
				avg = append(avg, parseCell(t, c))
			}
		}
		if row[0] == "Bit-wise Avg.R (std)" {
			for _, c := range row[1:] {
				std = append(std, parseCell(t, c))
			}
		}
	}
	if len(avg) != 5 {
		t.Fatalf("avg cells: %v", avg)
	}
	ens := avg[4]
	for i, v := range avg[:4] {
		if ens < v-0.08 {
			t.Errorf("ensemble R %.2f well below variant %d (%.2f)", ens, i, v)
		}
	}
	maxStd := 0.0
	for _, v := range std[:4] {
		if v > maxStd {
			maxStd = v
		}
	}
	if std[4] > maxStd+0.02 {
		t.Errorf("ensemble std %.2f above max single-rep std %.2f", std[4], maxStd)
	}
}

func TestTable6OptimizationShape(t *testing.T) {
	tab, err := sharedSuite.Table6()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
	if len(tab.Rows) != 23 { // 21 designs + Avg1 + Avg2
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	avg1 := findRow(t, tab, "Avg1")
	dTNSPred := parseCell(t, avg1[5])
	if dTNSPred > 2 {
		t.Errorf("average predicted-flow TNS delta %+.1f%%, expected improvement (negative)", dTNSPred)
	}
	// Prediction-guided optimization should be comparable to label-guided.
	dTNSReal := parseCell(t, avg1[9])
	if dTNSPred > dTNSReal+12 {
		t.Errorf("pred flow (%.1f%%) much worse than real flow (%.1f%%)", dTNSPred, dTNSReal)
	}
}

func TestFiguresProduceData(t *testing.T) {
	for name, fn := range map[string]func() (*Figure, error){
		"fig4":  sharedSuite.Fig4,
		"fig5a": sharedSuite.Fig5a,
		"fig5b": sharedSuite.Fig5b,
		"fig5c": sharedSuite.Fig5c,
		"fig5d": sharedSuite.Fig5d,
	} {
		f, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(f.Series) == 0 {
			t.Errorf("%s: no series", name)
		}
		for _, sr := range f.Series {
			if len(sr.X) == 0 || len(sr.X) != len(sr.Y) {
				t.Errorf("%s/%s: bad series (%d/%d)", name, sr.Name, len(sr.X), len(sr.Y))
			}
		}
		if !strings.Contains(f.CSV(), "series,x,y") {
			t.Errorf("%s: CSV header missing", name)
		}
		t.Log("\n" + f.Summary())
	}
}

func TestRuntimeReport(t *testing.T) {
	tab, err := sharedSuite.RuntimeReport()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
	if len(tab.Rows) != 5 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n"},
	}
	out := tab.Render()
	if !strings.Contains(out, "333  4") {
		t.Errorf("alignment broken:\n%s", out)
	}
	if tab.CSV() != "a,bb\n1,2\n333,4\n" {
		t.Errorf("csv: %q", tab.CSV())
	}
}

func TestAblationSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab, err := sharedSuite.AblationSampling()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
	if len(tab.Rows) != 5 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
}

func TestAblationEnsembleSize(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab, err := sharedSuite.AblationEnsembleSize()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
	// The 4-rep ensemble must not be worse than SOG alone by a margin.
	var first, last float64
	for i, row := range tab.Rows {
		v := parseCell(t, row[1])
		if i == 0 {
			first = v
		}
		last = v
	}
	if last < first-0.05 {
		t.Errorf("full ensemble (%.3f) notably below single representation (%.3f)", last, first)
	}
}

// TestCrossValidateMatchesDirectTraining checks the cross-validation memo
// for two configurations other than the default: on the first fold, a
// model trained directly on the fold's training designs must predict each
// held-out design bit for bit as the memoized cross-validation does.
func TestCrossValidateMatchesDirectTraining(t *testing.T) {
	s := sharedSuite
	data, err := s.Data()
	if err != nil {
		t.Fatal(err)
	}
	test := dataset.Folds(len(data), s.Cfg.Folds, s.Cfg.Seed+7)[0]
	held := map[int]bool{}
	for _, d := range test {
		held[d] = true
	}
	var train []*dataset.DesignData
	for i, dd := range data {
		if !held[i] {
			train = append(train, dd)
		}
	}
	for _, tc := range []struct {
		reps       []bog.Variant
		noSampling bool
	}{
		{[]bog.Variant{bog.AIG}, false},
		{bog.Variants(), true},
	} {
		cv, err := s.crossValidate(tc.reps, tc.noSampling)
		if err != nil {
			t.Fatal(err)
		}
		opts := s.coreOptions(bog.Variants(), false)
		opts.Reps = tc.reps
		opts.NoSampling = tc.noSampling
		model, err := core.Train(train, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range test {
			// %v prints every float64 in its shortest exact form, so equal
			// strings mean equal bits.
			got, want := fmt.Sprintf("%v", *cv[d]), fmt.Sprintf("%v", *model.Predict(data[d]))
			if got != want {
				t.Errorf("%s noSampling=%v: %s: memoized prediction differs from direct training",
					repsName(tc.reps), tc.noSampling, data[d].Spec.Name)
			}
		}
	}
}

// TestEachModelTrainsOnce runs every table and figure that reads the
// cross-validation: together they need exactly eight configurations, and
// each trains once per suite, so a later read returns the same
// predictions. The runtime report and the feature importance share one
// full-data model.
func TestEachModelTrainsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := sharedSuite
	for _, read := range []struct {
		name string
		run  func() error
	}{
		{"table4", func() error { _, err := s.Table4FineGrained(); return err }},
		{"table4overall", func() error { _, err := s.Table4Overall(); return err }},
		{"table5", func() error { _, err := s.Table5(); return err }},
		{"table6", func() error { _, err := s.Table6(); return err }},
		{"ablation-ens", func() error { _, err := s.AblationEnsembleSize(); return err }},
		{"fig5b", func() error { _, err := s.Fig5b(); return err }},
		{"fig5c", func() error { _, err := s.Fig5c(); return err }},
		{"fig5d", func() error { _, err := s.Fig5d(); return err }},
	} {
		if err := read.run(); err != nil {
			t.Fatalf("%s: %v", read.name, err)
		}
	}
	all := bog.Variants()
	want := []struct {
		reps       []bog.Variant
		noSampling bool
	}{
		{all, false}, // RTL-Timer: Table 4, Table 5's ensemble, Table 6, Fig 5
		{all, true},  // Table 4's "Tree-based w/o sample"
		{[]bog.Variant{bog.SOG}, false},
		{[]bog.Variant{bog.AIG}, false},
		{[]bog.Variant{bog.AIMG}, false},
		{[]bog.Variant{bog.XAG}, false},
		{all[:2], false},
		{all[:3], false},
	}
	if len(s.cv) != len(want) {
		t.Errorf("suite holds %d cross-validated configurations, want %d", len(s.cv), len(want))
	}
	for _, w := range want {
		run, ok := s.cv[cvKey{reps: repsName(w.reps), noSampling: w.noSampling}]
		if !ok {
			t.Errorf("configuration %s noSampling=%v never trained", repsName(w.reps), w.noSampling)
			continue
		}
		first, _ := run()
		again, err := s.crossValidate(w.reps, w.noSampling)
		if err != nil {
			t.Fatal(err)
		}
		if &again[0] != &first[0] {
			t.Errorf("configuration %s noSampling=%v trained twice", repsName(w.reps), w.noSampling)
		}
	}

	reads := 0
	full := s.full
	s.full = func() (*core.Model, error) { reads++; return full() }
	defer func() { s.full = full }()
	if _, err := s.RuntimeReport(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FeatureImportance(); err != nil {
		t.Fatal(err)
	}
	if reads != 2 {
		t.Errorf("runtime report and feature importance read the shared full-data model %d times, want 2", reads)
	}
}
