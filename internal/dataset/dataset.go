// Package dataset assembles the supervised learning problem of RTL-Timer:
// for each benchmark design it generates the RTL, elaborates it, builds
// the four BOG representations, runs pseudo-STA and register-oriented path
// sampling to produce per-endpoint feature groups, and runs the synthesis
// substrate to obtain ground-truth endpoint arrival times, WNS and TNS.
// It also provides the cross-validation folds over designs (train and test
// never share a design, §4.1).
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/elab"
	"rtltimer/internal/engine"
	"rtltimer/internal/features"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
	"rtltimer/internal/synth"
	"rtltimer/internal/verilog"
)

// RepData holds one design's samples under one BOG representation.
type RepData struct {
	Graph *bog.Graph
	Ext   *features.Extractor

	// X are path feature vectors; Groups[i] lists the rows belonging to
	// labeled endpoint i (first row is always the slowest path). Rows are
	// numbered group by group.
	X      [][]float64
	Seqs   [][][]float64 // per row: per-node sequence features (optional)
	Groups [][]int

	EPPseudo []float64 // per labeled endpoint: pseudo-STA arrival on this representation
}

// DesignData is the complete dataset entry for one design.
type DesignData struct {
	Spec   designs.Spec
	Design *elab.Design
	Period float64

	Synth    *synth.Result
	LabelWNS float64
	LabelTNS float64

	// The labeled-endpoint table: every graph endpoint with a ground-truth
	// label, in Graph.Endpoints order. bog.Build makes endpoints from the
	// design's registers and outputs alone, so one table serves all four
	// representations, aligned with each one's Groups and EPPseudo.
	EPRefs    []string
	EPSignals []string
	EPIsPO    []bool
	EPLabels  []float64 // ground-truth netlist arrival time
	EPIndex   []int     // endpoint index in Graph.Endpoints

	Reps map[bog.Variant]*RepData
}

// BuildOptions configures dataset construction.
type BuildOptions struct {
	// Period is the clock period in ns. Zero selects an automatic
	// per-design clock: 84% of the design's unoptimized worst arrival
	// time, so that the critical tail violates (as in the paper's setup)
	// while most endpoints meet timing.
	Period     float64
	Scale      int  // overrides spec scale when > 0
	MinSamples int  // min random paths per endpoint (default 2)
	MaxSamples int  // max random paths per endpoint (default 12)
	WithSeqs   bool // also extract per-node sequences (transformer)
	// Engine drives the per-design and per-representation fan-out and
	// caches representation evaluations. nil gives the call a private
	// engine.New(0), whose cache is dropped when the call returns.
	Engine *engine.Engine
}

// ValidatePeriod checks a user-supplied clock period: a finite number of
// nanoseconds, or 0 for the automatic per-design clock. A negative, NaN or
// infinite period would run synthesis and prediction against a clock no
// design can have.
func ValidatePeriod(period float64) error {
	if period < 0 || math.IsNaN(period) || math.IsInf(period, 0) {
		return fmt.Errorf("period must be a finite number of ns >= 0 (0 = automatic), got %v", period)
	}
	return nil
}

func (o BuildOptions) withDefaults() BuildOptions {
	if o.MinSamples == 0 {
		o.MinSamples = 2
	}
	if o.MaxSamples == 0 {
		o.MaxSamples = 12
	}
	if o.Engine == nil {
		o.Engine = engine.New(0)
	}
	return o
}

// autoPeriod derives the per-design clock: a probe synthesis (default
// effort) measures the worst arrival time, and the clock is set slightly
// inside it so that the critical tail of endpoints violates.
func autoPeriod(probe *synth.Result) float64 {
	maxAT := 0.0
	for _, at := range probe.Timing.EndpointAT {
		if at > maxAT {
			maxAT = at
		}
	}
	if maxAT == 0 {
		return 0.5
	}
	p := 0.84 * maxAT
	// Round to 10 ps for readable reports.
	return math.Round(p*100) / 100
}

// Build constructs the dataset entry for one design spec.
func Build(spec designs.Spec, opts BuildOptions) (*DesignData, error) {
	o := opts.withDefaults()
	if o.Scale > 0 {
		spec.Scale = o.Scale
	}
	src := designs.Generate(spec)
	return BuildFromSource(spec, src, o)
}

// BuildFromSource constructs a dataset entry from Verilog text (used both
// by the benchmark flow and the CLI on user-provided files).
func BuildFromSource(spec designs.Spec, src string, opts BuildOptions) (*DesignData, error) {
	o := opts.withDefaults()
	parsed, err := verilog.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", spec.Name, err)
	}
	design, err := elab.Elaborate(parsed)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", spec.Name, err)
	}
	dd := &DesignData{
		Spec:   spec,
		Design: design,
		Reps:   map[bog.Variant]*RepData{},
	}
	// Ground truth via the synthesis substrate. With an automatic clock, a
	// probe run at a relaxed period measures the design's natural speed
	// first, then the real run targets the derived clock.
	period := o.Period
	if period == 0 {
		probe, err := synth.Run(design, synth.Options{Period: 1000, Seed: spec.Seed})
		if err != nil {
			return nil, fmt.Errorf("dataset: %s: %w", spec.Name, err)
		}
		period = autoPeriod(probe)
	}
	dd.Period = period
	o.Period = period
	synres, err := synth.Run(design, synth.Options{Period: period, Seed: spec.Seed})
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", spec.Name, err)
	}
	dd.Synth = synres
	dd.LabelWNS = synres.Timing.WNS
	dd.LabelTNS = synres.Timing.TNS

	// Per-representation evaluation fans out over the engine: the cached
	// graph/STA/extractor build is shared, and each variant's path sampling
	// is driven by its own seeded rng, so results are byte-identical for
	// every worker count.
	lib := liberty.DefaultPseudoLib()
	tag := engine.DesignTag(spec.Name, src)
	variants := bog.Variants()
	rrs := make([]*engine.RepResult, len(variants))
	err = o.Engine.ForEachErr(len(variants), func(vi int) error {
		rr, rerr := o.Engine.EvalRep(engine.Key{Design: tag, Variant: variants[vi]}, lib, engine.FixedDesign(design))
		if rerr != nil {
			return fmt.Errorf("dataset: %s/%v: %w", spec.Name, variants[vi], rerr)
		}
		rrs[vi] = rr
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The representations share their endpoints, so the first one's give
	// the labeled-endpoint table.
	labels := synres.Labels()
	for ep, e := range rrs[0].Graph.Endpoints {
		ref := e.Ref.String()
		label, ok := labels[ref]
		if !ok {
			continue
		}
		dd.EPRefs = append(dd.EPRefs, ref)
		dd.EPSignals = append(dd.EPSignals, e.Ref.Signal)
		dd.EPIsPO = append(dd.EPIsPO, e.IsPO)
		dd.EPLabels = append(dd.EPLabels, label)
		dd.EPIndex = append(dd.EPIndex, ep)
	}
	reps := make([]*RepData, len(variants))
	o.Engine.ForEach(len(variants), func(vi int) {
		// The cached evaluation is period-free; materialize this design's
		// clock (slack/WNS/TNS only — the forward pass is shared).
		rr := rrs[vi]
		g, r, ext := rr.Graph, rr.At(o.Period), rr.Ext
		rep := &RepData{Graph: g, Ext: ext}
		rng := rand.New(rand.NewSource(spec.Seed*1000 + int64(variants[vi])))
		for _, ep := range dd.EPIndex {
			k := sta.SampleCount(ext.Cone(ep).DrivingRegs, o.MinSamples, o.MaxSamples)
			paths := r.SamplePaths(g, ep, k, rng)
			var rows []int
			for _, p := range paths {
				rows = append(rows, len(rep.X))
				rep.X = append(rep.X, ext.PathVector(ep, p))
				if o.WithSeqs {
					rep.Seqs = append(rep.Seqs, ext.SeqFeatures(p))
				}
			}
			rep.Groups = append(rep.Groups, rows)
			rep.EPPseudo = append(rep.EPPseudo, r.EndpointAT[ep])
		}
		reps[vi] = rep
	})
	for vi, v := range variants {
		dd.Reps[v] = reps[vi]
	}
	return dd, nil
}

// BuildAll builds entries for all specs on the engine's worker pool:
// designs fan out across workers, and each design's representations fan
// out again beneath it (the nested level degrades to inline execution
// when the pool is saturated).
func BuildAll(specs []designs.Spec, opts BuildOptions) ([]*DesignData, error) {
	o := opts.withDefaults()
	out := make([]*DesignData, len(specs))
	errs := make([]error, len(specs))
	o.Engine.ForEach(len(specs), func(i int) {
		out[i], errs[i] = Build(specs[i], o)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dataset: %s: %w", specs[i].Name, err)
		}
	}
	return out, nil
}

// Signal is one sequential signal: its name and its bits' indices in
// the labeled-endpoint table.
type Signal struct {
	Name string
	EPs  []int
}

// Signals groups the labeled endpoints by signal, skipping primary-output
// pseudo endpoints (the paper's signal-level task covers sequential
// signals): signals in order of first appearance, each with its endpoints
// in table order.
func (dd *DesignData) Signals() []Signal {
	at := map[string]int{}
	var out []Signal
	for i, name := range dd.EPSignals {
		if dd.EPIsPO[i] {
			continue
		}
		si, ok := at[name]
		if !ok {
			si = len(out)
			at[name] = si
			out = append(out, Signal{Name: name})
		}
		out[si].EPs = append(out[si].EPs, i)
	}
	return out
}

// SignalLabels aggregates the bit labels to signal-level max arrival
// times. A signal whose labels are all at most 0 is left out.
func (dd *DesignData) SignalLabels() map[string]float64 {
	out := map[string]float64{}
	for _, s := range dd.Signals() {
		for _, i := range s.EPs {
			if dd.EPLabels[i] > out[s.Name] {
				out[s.Name] = dd.EPLabels[i]
			}
		}
	}
	return out
}

// PathGroups concatenates one representation's path rows over designs for
// the grouped max-arrival loss: groups[i] lists the rows of X belonging to
// the i-th labeled endpoint overall, and labels[i] is its label. With
// slowestOnly each group keeps only its slowest path.
func PathGroups(data []*DesignData, v bog.Variant, slowestOnly bool) (X [][]float64, groups [][]int, labels []float64) {
	for _, dd := range data {
		rep := dd.Reps[v]
		base := len(X)
		X = append(X, rep.X...)
		for _, g := range rep.Groups {
			if slowestOnly {
				g = g[:1]
			}
			rows := make([]int, 0, len(g))
			for _, r := range g {
				rows = append(rows, base+r)
			}
			groups = append(groups, rows)
		}
		labels = append(labels, dd.EPLabels...)
	}
	return X, groups, labels
}

// GroupMax returns each group's largest row prediction, pred[r] being row
// r's. With slowestOnly a group reads only its slowest path.
func GroupMax(groups [][]int, pred []float64, slowestOnly bool) []float64 {
	out := make([]float64, len(groups))
	for gi, g := range groups {
		if slowestOnly {
			g = g[:1]
		}
		best := math.Inf(-1)
		for _, r := range g {
			if pred[r] > best {
				best = pred[r]
			}
		}
		out[gi] = best
	}
	return out
}

// Folds returns k cross-validation folds over n designs: fold i is the
// list of test-design indices. Every design appears in exactly one test
// fold (paper §4.1: 10-fold with strictly different designs). k is
// clamped to [1, n], so k < 1 degrades to a single fold instead of
// panicking and k > n to leave-one-out; n < 1 returns no folds. The
// result is deterministic in (n, k, seed).
func Folds(n, k int, seed int64) [][]int {
	if n < 1 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	folds := make([][]int, k)
	for i, d := range perm {
		folds[i%k] = append(folds[i%k], d)
	}
	var out [][]int
	for _, f := range folds {
		if len(f) > 0 {
			out = append(out, f)
		}
	}
	return out
}
