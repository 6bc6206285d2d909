// Package rtltimer is the public API of the RTL-Timer reproduction
// (Fang et al., "Annotating Slack Directly on Your Verilog: Fine-Grained
// RTL Timing Evaluation for Early Optimization", DAC 2024).
//
// RTL-Timer predicts, at the register-transfer level, the post-synthesis
// arrival time and slack of every sequential signal of a Verilog design,
// plus the design-level WNS and TNS, and can annotate the predictions
// directly onto the source text. The heavy lifting lives in the internal
// packages (README.md describes the commands and subsystems built on
// them); this package exposes the workflow a downstream user needs:
//
//	pred, err := rtltimer.TrainBenchmarkPredictor(rtltimer.Options{})
//	res, err := pred.PredictVerilog(src)
//	annotated, err := res.Annotate(src)
package rtltimer

import (
	"fmt"

	"rtltimer/internal/annotate"
	"rtltimer/internal/bog"
	"rtltimer/internal/core"
	"rtltimer/internal/dataset"
	"rtltimer/internal/designs"
	"rtltimer/internal/elab"
	"rtltimer/internal/engine"
	"rtltimer/internal/liberty"
	"rtltimer/internal/metrics"
	"rtltimer/internal/opt"
	"rtltimer/internal/synth"
	"rtltimer/internal/verilog"
)

// Options configures predictor training and prediction.
type Options struct {
	// Fast trades a little accuracy for much faster training.
	Fast bool
	// Period forces a clock period in ns (0 = per-design automatic).
	Period float64
	// ExcludeDesign leaves one benchmark design out of training (set this
	// to the design's name when predicting a benchmark, so the evaluation
	// is honest).
	ExcludeDesign string
	// Seed controls all randomized components.
	Seed int64
	// Jobs bounds the evaluation engine's concurrency (0 = GOMAXPROCS; a
	// negative count is an error). Results are identical for every jobs
	// value.
	Jobs int
	// CacheDir enables the persistent on-disk representation cache
	// ("" = memory only): training and prediction then warm-start by
	// deserializing each design's graphs and timing state instead of
	// re-parsing, bit-blasting and re-running pseudo-STA. Results are
	// byte-identical either way.
	CacheDir string
}

// Predictor is a trained RTL-Timer model.
type Predictor struct {
	model *core.Model
	opts  Options
	eng   *engine.Engine
}

// SignalSlack is the per-signal prediction exposed to users.
type SignalSlack struct {
	Name      string
	ArrivalNS float64
	SlackNS   float64
	Group     int // criticality group, 0 (top 5%) .. 3
}

// Result is a full prediction for one design.
type Result struct {
	DesignName string
	PeriodNS   float64
	WNS        float64
	TNS        float64
	Signals    []SignalSlack

	pred *core.DesignPrediction
	data *dataset.DesignData
}

// TrainBenchmarkPredictor trains RTL-Timer on the 21-design benchmark
// suite (paper Table 3). The returned predictor embeds the four-
// representation ensemble, the signal regressor and ranker, and the
// WNS/TNS models.
func TrainBenchmarkPredictor(opts Options) (*Predictor, error) {
	if err := checkSettings(opts.Jobs, opts.Period); err != nil {
		return nil, err
	}
	var specs []designs.Spec
	for _, s := range designs.All() {
		if s.Name == opts.ExcludeDesign {
			continue
		}
		specs = append(specs, s)
	}
	eng := engine.New(opts.Jobs)
	if opts.CacheDir != "" {
		eng.SetCacheDir(opts.CacheDir)
	}
	data, err := dataset.BuildAll(specs, dataset.BuildOptions{Engine: eng})
	if err != nil {
		return nil, err
	}
	copts := core.DefaultOptions()
	copts.Seed = opts.Seed
	copts.SetEngine(eng)
	if opts.Fast {
		copts.BitTreeOpts.NumTrees = 40
		copts.EnsembleOpts.NumTrees = 40
		copts.SignalOpts.NumTrees = 40
		copts.LTROpts.NumTrees = 30
	}
	m, err := core.Train(data, copts)
	if err != nil {
		return nil, err
	}
	// The corpus representations are no longer needed once the model is
	// trained; dropping them keeps the predictor's footprint at model size.
	eng.Reset()
	return &Predictor{model: m, opts: opts, eng: eng}, nil
}

// checkSettings refuses, before any work, a jobs count or clock period the
// CLIs refuse: a negative jobs count (engine.New would silently run
// GOMAXPROCS workers instead) and a negative, NaN or infinite period.
func checkSettings(jobs int, period float64) error {
	if err := engine.ValidateConcurrency(jobs); err != nil {
		return fmt.Errorf("rtltimer: %w", err)
	}
	if err := dataset.ValidatePeriod(period); err != nil {
		return fmt.Errorf("rtltimer: %w", err)
	}
	return nil
}

// PredictVerilog runs the full RTL-Timer inference pipeline on Verilog
// source text: parse, elaborate, bit-blast into the four representations,
// pseudo-STA with register-oriented path sampling, then model inference.
// The design is also run through the synthesis substrate so Result can
// report prediction accuracy against ground truth.
func (p *Predictor) PredictVerilog(src string) (*Result, error) {
	spec := designs.Spec{Name: "user", Seed: p.opts.Seed + 777}
	dd, err := dataset.BuildFromSource(spec, src, dataset.BuildOptions{
		Period: p.opts.Period,
		Engine: p.eng,
	})
	// The returned Result retains dd (and through it the graphs) for
	// accuracy reporting; dropping the engine's duplicate cache entries
	// keeps a long-lived predictor's memory bounded by its live Results.
	p.eng.Reset()
	if err != nil {
		return nil, err
	}
	pred := p.model.Predict(dd)
	res := &Result{
		DesignName: dd.Design.Name,
		PeriodNS:   dd.Period,
		WNS:        pred.WNS,
		TNS:        pred.TNS,
		pred:       pred,
		data:       dd,
	}
	for _, s := range pred.Signals {
		res.Signals = append(res.Signals, SignalSlack{
			Name:      s.Name,
			ArrivalNS: s.AT,
			SlackNS:   s.Slack,
			Group:     s.Group,
		})
	}
	return res, nil
}

// Annotate returns the source text with slack annotations on every
// sequential signal declaration (paper §3.5.1).
func (r *Result) Annotate(src string) (string, error) {
	return annotate.Annotate(src, r.pred)
}

// Accuracy reports the prediction quality against the synthesis
// substrate's ground truth for this design: bit-level and signal-level
// Pearson R and the ranking coverage COVR.
func (r *Result) Accuracy() (bitR, signalR, covr float64) {
	bitR = metrics.Pearson(r.data.EPLabels, r.pred.BitAT)
	sl, sp, ranks := core.SignalLabelVectors(r.data, r.pred)
	signalR = metrics.Pearson(sl, sp)
	covr = metrics.COVR(sl, ranks)
	return
}

// GroundTruth returns the synthesis substrate's actual WNS/TNS for the
// predicted design.
func (r *Result) GroundTruth() (wns, tns float64) {
	return r.data.LabelWNS, r.data.LabelTNS
}

// OptimizationPlan derives the group_path groups (bit endpoint references,
// most critical group first), each group's group_path weight and the
// retime candidate list from the prediction, ready to pass to Synthesize
// as Groups, GroupWeights and RetimeRefs.
func (r *Result) OptimizationPlan() (groups [][]string, weights []float64, retime []string) {
	plan := core.PredictedPlan(r.data, r.pred)
	return plan.Groups, plan.Weights, plan.Retime
}

// SynthOptions configures a synthesis run through the substrate.
type SynthOptions struct {
	// PeriodNS is the target clock (0 = 0.5 ns; a negative, NaN or
	// infinite period is an error).
	PeriodNS     float64
	Seed         int64
	Groups       [][]string // group_path endpoint groups (optional)
	GroupWeights []float64
	RetimeRefs   []string // registers to retime (optional)
	ExtraEffort  bool     // triple the sizing budget (optimization flow)
}

// SynthReport summarizes a synthesis run.
type SynthReport struct {
	WNS, TNS     float64
	PlacedWNS    float64
	PlacedTNS    float64
	AreaUM2      float64
	Power        float64
	CombCells    int
	RegisterBits int
}

// Synthesize runs the logic-synthesis substrate on Verilog source,
// returning post-synthesis timing, area and power (the ground-truth flow
// the predictor models).
func Synthesize(src string, opts SynthOptions) (*SynthReport, error) {
	parsed, err := verilog.Parse(src)
	if err != nil {
		return nil, err
	}
	design, err := elab.Elaborate(parsed)
	if err != nil {
		return nil, err
	}
	so := synth.Options{
		Period:       opts.PeriodNS,
		Seed:         opts.Seed,
		Groups:       opts.Groups,
		GroupWeights: opts.GroupWeights,
		RetimeRefs:   opts.RetimeRefs,
	}
	if opts.ExtraEffort {
		so.SizingRounds = 42
	}
	res, err := synth.Run(design, so)
	if err != nil {
		return nil, err
	}
	return &SynthReport{
		WNS:          res.Timing.WNS,
		TNS:          res.Timing.TNS,
		PlacedWNS:    res.PostOpt.WNS,
		PlacedTNS:    res.PostOpt.TNS,
		AreaUM2:      res.Report.Area,
		Power:        res.Report.Power,
		CombCells:    res.Netlist.CombGates(),
		RegisterBits: res.Netlist.SeqGates(),
	}, nil
}

// RewriteOptions configures ExploreRewrites.
type RewriteOptions struct {
	// PeriodNS is the target clock for the search (0 = each representation
	// is 5%-overconstrained against its own critical path, so the search
	// always starts with violations to fix; a negative, NaN or infinite
	// period is an error).
	PeriodNS float64
	// Passes bounds the greedy passes over the critical endpoints (0 = 4;
	// a negative count is an error).
	Passes int
	// Jobs bounds the evaluation engine's concurrency (0 = GOMAXPROCS; a
	// negative count is an error).
	Jobs int
	// CacheDir enables the persistent representation cache ("" = memory
	// only); a warm cache skips the Verilog frontend and every base
	// timing pass — the search then rebases its deltas on the restored
	// entries.
	CacheDir string
}

// RewriteReport summarizes the incremental-STA rewrite exploration of one
// BOG representation (paper §3.5.2's optimization application, driven at
// the pseudo-netlist level).
type RewriteReport struct {
	Variant      string
	PeriodNS     float64
	StartWNS     float64
	StartTNS     float64
	FinalWNS     float64
	FinalTNS     float64
	EditsTried   int
	EditsApplied int
	// NodesRetimed counts per-node arrival recomputes the whole search
	// consumed; a full re-analysis per trial would instead cost
	// EditsTried x NodesTotal.
	NodesRetimed int64
	NodesTotal   int
}

// ExploreRewrites runs the pseudo-STA-guided reassociation search on all
// four BOG representations of a Verilog design: a greedy loop over the
// critical endpoints that trials function-preserving operator-tree
// rebalances, re-timing only the affected cone per trial through the
// incremental STA session, and deriving each representation's winning
// delta through the engine's delta-keyed cache. Results are deterministic
// for every Jobs value. A design without timing endpoints (no registers
// or outputs to constrain) yields zeroed reports with no edits tried.
func ExploreRewrites(src string, opts RewriteOptions) ([]RewriteReport, error) {
	if err := checkSettings(opts.Jobs, opts.PeriodNS); err != nil {
		return nil, err
	}
	if opts.Passes < 0 {
		return nil, fmt.Errorf("rtltimer: passes must not be negative, got %d", opts.Passes)
	}
	eng := engine.New(opts.Jobs)
	if opts.CacheDir != "" {
		eng.SetCacheDir(opts.CacheDir)
	}
	lazy := engine.LazyDesign(src)
	lib := liberty.DefaultPseudoLib()
	tag := engine.DesignTag("rewrite", src)
	variants := bog.Variants()
	out := make([]RewriteReport, len(variants))
	err := eng.ForEachErr(len(variants), func(vi int) error {
		rr, rerr := eng.EvalRep(engine.Key{Design: tag, Variant: variants[vi]}, lib, lazy)
		if rerr != nil {
			return rerr
		}
		rep, _, rerr := opt.OptimizeRep(rr, opt.Config{Period: opts.PeriodNS, MaxPasses: opts.Passes})
		if rerr != nil {
			return rerr
		}
		out[vi] = RewriteReport{
			Variant:      variants[vi].String(),
			PeriodNS:     rep.Period,
			StartWNS:     rep.StartWNS,
			StartTNS:     rep.StartTNS,
			FinalWNS:     rep.FinalWNS,
			FinalTNS:     rep.FinalTNS,
			EditsTried:   rep.Tried,
			EditsApplied: rep.Applied,
			NodesRetimed: rep.Retimed,
			NodesTotal:   rep.Nodes,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BenchmarkVerilog returns the generated Verilog of a named benchmark
// design (see internal/designs / paper Table 3).
func BenchmarkVerilog(name string) (string, error) {
	spec, ok := designs.ByName(name)
	if !ok {
		return "", fmt.Errorf("rtltimer: unknown benchmark %q", name)
	}
	return designs.Generate(spec), nil
}

// BenchmarkNames lists the 21 benchmark designs.
func BenchmarkNames() []string {
	var out []string
	for _, s := range designs.All() {
		out = append(out, s.Name)
	}
	return out
}
