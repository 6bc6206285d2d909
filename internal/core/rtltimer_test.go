package core

import (
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/dataset"
	"rtltimer/internal/designs"
	"rtltimer/internal/metrics"
)

// trainTestData builds a small cross-design split once per test binary.
var cached struct {
	train []*dataset.DesignData
	test  *dataset.DesignData
}

func loadData(t *testing.T) ([]*dataset.DesignData, *dataset.DesignData) {
	t.Helper()
	if cached.train != nil {
		return cached.train, cached.test
	}
	names := []string{"syscdes", "b17", "Rocket1", "conmax", "Vex_1", "FPU"}
	var specs []designs.Spec
	for _, n := range names {
		s, ok := designs.ByName(n)
		if !ok {
			t.Fatalf("missing %s", n)
		}
		specs = append(specs, s)
	}
	data, err := dataset.BuildAll(specs, dataset.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cached.train = data[:len(data)-1]
	cached.test = data[len(data)-1]
	return cached.train, cached.test
}

func fastOptions() Options {
	o := DefaultOptions()
	o.BitTreeOpts.NumTrees = 40
	o.BitTreeOpts.MaxDepth = 6
	o.EnsembleOpts.NumTrees = 40
	o.SignalOpts.NumTrees = 40
	o.LTROpts.NumTrees = 30
	return o
}

func TestTrainPredictCrossDesign(t *testing.T) {
	train, test := loadData(t)
	m, err := Train(train, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := m.Predict(test)
	labels, preds := test.EPLabels, p.BitAT
	if len(labels) != len(preds) || len(labels) == 0 {
		t.Fatalf("bit vectors: %d vs %d", len(labels), len(preds))
	}
	r := metrics.Pearson(labels, preds)
	if r < 0.5 {
		t.Errorf("unseen-design bit-wise R = %.3f, want > 0.5", r)
	}
	sl, sp, ranks := SignalLabelVectors(test, p)
	if len(sl) == 0 {
		t.Fatal("no signal vectors")
	}
	if rs := metrics.Pearson(sl, sp); rs < 0.5 {
		t.Errorf("signal-wise R = %.3f, want > 0.5", rs)
	}
	if covr := metrics.COVR(sl, ranks); covr < 32 {
		t.Errorf("ranking COVR = %.1f, want > 32", covr)
	}
}

func TestEnsembleBeatsWorstSingleRep(t *testing.T) {
	train, test := loadData(t)
	full, err := Train(train, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	labels := test.EPLabels
	rFull := metrics.Pearson(labels, full.Predict(test).BitAT)

	worst := 1.0
	for _, v := range bog.Variants() {
		o := fastOptions()
		o.Reps = []bog.Variant{v}
		single, err := Train(train, o)
		if err != nil {
			t.Fatal(err)
		}
		if r := metrics.Pearson(labels, single.Predict(test).BitAT); r < worst {
			worst = r
		}
	}
	if rFull < worst-0.05 {
		t.Errorf("ensemble R %.3f below worst single-rep R %.3f", rFull, worst)
	}
}

func TestSamplingAblationDirection(t *testing.T) {
	// The "w/o sample" ablation should not beat full sampling by a wide
	// margin (the paper reports sampling strictly helps on average).
	train, test := loadData(t)
	full, err := Train(train, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	noSample := fastOptions()
	noSample.NoSampling = true
	abl, err := Train(train, noSample)
	if err != nil {
		t.Fatal(err)
	}
	rFull := metrics.Pearson(test.EPLabels, full.Predict(test).BitAT)
	rAbl := metrics.Pearson(test.EPLabels, abl.Predict(test).BitAT)
	if rAbl > rFull+0.1 {
		t.Errorf("no-sampling ablation much better (%.3f) than full (%.3f)?", rAbl, rFull)
	}
}

func TestDesignLevelPrediction(t *testing.T) {
	train, test := loadData(t)
	m, err := Train(train, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := m.Predict(test)
	// WNS/TNS predictions must be in a sane range (negative-ish, same
	// order of magnitude as the label).
	if p.TNS > 0.1 {
		t.Errorf("predicted TNS %.3f should be <= 0 at this period (label %.3f)", p.TNS, test.LabelTNS)
	}
	if p.WNS > test.Period {
		t.Errorf("predicted WNS %.3f beyond period", p.WNS)
	}
	// Groups cover 0..3 and every signal has one.
	counts := map[int]int{}
	for _, s := range p.Signals {
		counts[s.Group]++
	}
	if len(p.Signals) >= 8 && len(counts) < 2 {
		t.Errorf("criticality grouping degenerate: %v", counts)
	}
	if _, ok := p.SignalByName(p.Signals[0].Name); !ok {
		t.Error("SignalByName broken")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, DefaultOptions()); err == nil {
		t.Error("expected error on empty training set")
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	train, test := loadData(t)
	m, err := Train(train, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.bin"
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p1 := m.Predict(test)
	p2 := loaded.Predict(test)
	if p1.WNS != p2.WNS || p1.TNS != p2.TNS {
		t.Errorf("design predictions differ after reload: %f/%f vs %f/%f", p1.WNS, p1.TNS, p2.WNS, p2.TNS)
	}
	for i := range p1.BitAT {
		if p1.BitAT[i] != p2.BitAT[i] {
			t.Fatalf("bit prediction %d differs after reload", i)
		}
	}
	for i := range p1.Signals {
		if p1.Signals[i] != p2.Signals[i] {
			t.Fatalf("signal prediction %d differs after reload", i)
		}
	}
}
