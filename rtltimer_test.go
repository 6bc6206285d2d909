package rtltimer

import (
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"rtltimer/internal/core"
)

// trainedPredictor is shared across API tests (training is the slow part).
var trainedPredictor *Predictor

func getPredictor(t *testing.T) *Predictor {
	t.Helper()
	if trainedPredictor != nil {
		return trainedPredictor
	}
	p, err := TrainBenchmarkPredictor(Options{Fast: true, Seed: 1, ExcludeDesign: "b17"})
	if err != nil {
		t.Fatal(err)
	}
	trainedPredictor = p
	return p
}

func TestPublicAPIBenchmarks(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 21 {
		t.Fatalf("benchmark count: %d", len(names))
	}
	src, err := BenchmarkVerilog("b17")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "module b17") {
		t.Error("benchmark source malformed")
	}
	if _, err := BenchmarkVerilog("nope"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

// TestTrainBenchmarkPredictorRejectsBadPeriod: a clock no design can have
// fails up front instead of training a model to predict against it.
func TestTrainBenchmarkPredictorRejectsBadPeriod(t *testing.T) {
	for _, p := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := TrainBenchmarkPredictor(Options{Fast: true, Period: p}); err == nil || !strings.Contains(err.Error(), "period") {
			t.Errorf("Period %v: err = %v, want an error naming the period", p, err)
		}
	}
}

// TestTrainBenchmarkPredictorRejectsBadJobs: a negative jobs count is
// refused before anything is built, not run as GOMAXPROCS workers; the
// cache directory stays empty.
func TestTrainBenchmarkPredictorRejectsBadJobs(t *testing.T) {
	dir := t.TempDir()
	if _, err := TrainBenchmarkPredictor(Options{Fast: true, Jobs: -1, CacheDir: dir}); err == nil || !strings.Contains(err.Error(), "jobs") {
		t.Fatalf("Jobs -1: err = %v, want an error naming jobs", err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("the refused run wrote %d cache files (%v)", len(ents), err)
	}
}

// TestExploreRewritesRejectsBadSettings: ExploreRewrites refuses what the
// CLI refuses, with an error naming the setting, before any design is
// built — so on a source that does not even parse, the setting is what
// the error names, not the parser.
func TestExploreRewritesRejectsBadSettings(t *testing.T) {
	small, err := BenchmarkVerilog("b22")
	if err != nil {
		t.Fatal(err)
	}
	const unparsable = "module broken("
	for _, tc := range []struct {
		name string
		src  string
		opts RewriteOptions
		want string
	}{
		{"negative jobs", small, RewriteOptions{Jobs: -1}, "jobs"},
		{"negative period", small, RewriteOptions{PeriodNS: -1}, "period"},
		{"NaN period", unparsable, RewriteOptions{PeriodNS: math.NaN()}, "period"},
		{"negative passes", unparsable, RewriteOptions{Passes: -1}, "passes"},
	} {
		if _, err := ExploreRewrites(tc.src, tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want an error naming %s", tc.name, err, tc.want)
		}
	}
}

func TestPublicAPIPredictAnnotate(t *testing.T) {
	p := getPredictor(t)
	src, _ := BenchmarkVerilog("b17")
	res, err := p.PredictVerilog(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeriodNS <= 0 {
		t.Errorf("period: %f", res.PeriodNS)
	}
	if len(res.Signals) == 0 {
		t.Fatal("no signal predictions")
	}
	bitR, sigR, covr := res.Accuracy()
	if bitR < 0.5 || sigR < 0.4 {
		t.Errorf("held-out accuracy low: bit %f signal %f covr %f", bitR, sigR, covr)
	}
	wns, tns := res.GroundTruth()
	if wns >= 0 && tns < 0 {
		t.Errorf("inconsistent ground truth: %f / %f", wns, tns)
	}
	annotated, err := res.Annotate(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(annotated, "Slack@") || !strings.Contains(annotated, "Tech:") {
		t.Error("annotation missing markers")
	}
}

func TestPublicAPIOptimizationFlow(t *testing.T) {
	p := getPredictor(t)
	src, _ := BenchmarkVerilog("b17")
	res, err := p.PredictVerilog(src)
	if err != nil {
		t.Fatal(err)
	}
	groups, weights, retime := res.OptimizationPlan()
	if len(groups) != 4 {
		t.Fatalf("groups: %d", len(groups))
	}
	if want := core.PredictedPlan(res.data, res.pred).Weights; !slices.Equal(weights, want) {
		t.Fatalf("group weights %v, the predicted plan's %v", weights, want)
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total == 0 {
		t.Fatal("empty optimization plan")
	}
	base, err := Synthesize(src, SynthOptions{PeriodNS: res.PeriodNS, Seed: 303})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Synthesize(src, SynthOptions{
		PeriodNS:     res.PeriodNS,
		Seed:         303,
		Groups:       groups,
		GroupWeights: weights,
		RetimeRefs:   retime,
		ExtraEffort:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.CombCells == 0 || opt.CombCells == 0 {
		t.Fatal("synthesis produced no cells")
	}
	// The optimized flow should not lose badly on TNS.
	if opt.TNS < base.TNS*1.5 && base.TNS < -0.05 {
		t.Errorf("optimized TNS %f much worse than base %f", opt.TNS, base.TNS)
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := Synthesize("not verilog", SynthOptions{}); err == nil {
		t.Error("expected parse error")
	}
	src, err := BenchmarkVerilog("syscdes")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Synthesize(src, SynthOptions{PeriodNS: math.NaN()}); err == nil {
		t.Error("NaN period accepted")
	}
}

// TestExploreRewrites exercises the public incremental-STA rewrite
// exploration: the search must never regress timing, must re-time far
// less than trials x graph per representation, and must be deterministic
// across jobs counts.
func TestExploreRewrites(t *testing.T) {
	src, err := BenchmarkVerilog(BenchmarkNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	reports, err := ExploreRewrites(src, RewriteOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("got %d reports, want one per representation", len(reports))
	}
	for _, r := range reports {
		if r.FinalWNS < r.StartWNS {
			t.Errorf("%s: WNS regressed %f -> %f", r.Variant, r.StartWNS, r.FinalWNS)
		}
		if r.EditsApplied > r.EditsTried {
			t.Errorf("%s: applied %d > tried %d", r.Variant, r.EditsApplied, r.EditsTried)
		}
		if r.EditsTried > 0 && r.NodesRetimed >= int64(r.EditsTried)*int64(r.NodesTotal) {
			t.Errorf("%s: search re-timed %d nodes over %d trials of a %d-node graph — not cone-bounded",
				r.Variant, r.NodesRetimed, r.EditsTried, r.NodesTotal)
		}
	}
	parallel, err := ExploreRewrites(src, RewriteOptions{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reports {
		if reports[i] != parallel[i] {
			t.Errorf("report %d differs between jobs=1 and jobs=8:\n%+v\n%+v", i, reports[i], parallel[i])
		}
	}
}
