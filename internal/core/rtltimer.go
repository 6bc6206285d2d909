// Package core implements RTL-Timer, the paper's fine-grained RTL timing
// estimator. The pipeline follows §3 end to end:
//
//  1. Bit-wise endpoint modeling: per BOG representation (SOG/AIG/AIMG/
//     XAG), a gradient-boosted tree over sampled path features trained
//     with the grouped max-arrival-time loss (Eq. 3);
//  2. Representation ensemble: a second-stage tree over the four per-rep
//     predictions plus their max/min/avg/std statistics and the design
//     and cone features (§3.3);
//  3. Signal-wise modeling: bit→signal max aggregation, a tree regressor
//     for signal max arrival time and a LambdaMART ranker for critical-
//     level ordering (§3.4.2);
//  4. Design-level WNS/TNS models on top of the bit-wise predictions
//     (§3.4.3).
package core

import (
	"fmt"
	"math"
	"sort"

	"rtltimer/internal/bog"
	"rtltimer/internal/dataset"
	"rtltimer/internal/engine"
	"rtltimer/internal/metrics"
	"rtltimer/internal/ml/ltr"
	"rtltimer/internal/ml/tree"
)

// Setup is the register setup time assumed when converting predicted
// arrival times to slack (matches the synthesis substrate's DFF).
const Setup = 0.035

// Options configures RTL-Timer training.
type Options struct {
	// Reps selects the representations to use (default: all four).
	Reps []bog.Variant
	// NoSampling is the paper's "w/o sample" ablation: train on the
	// slowest path only.
	NoSampling bool
	// BitTreeOpts configures the per-representation bit-wise models.
	BitTreeOpts tree.Options
	// EnsembleOpts configures the representation-ensemble model.
	EnsembleOpts tree.Options
	// SignalOpts configures the signal-level regressor.
	SignalOpts tree.Options
	// DesignOpts configures the WNS/TNS models.
	DesignOpts tree.Options
	// LTROpts configures the LambdaMART ranker.
	LTROpts ltr.Options
	Seed    int64

	// eng fans out per-representation model training and inner OOF folds.
	// Unexported so gob-serialized models skip it (see serialize.go); Train
	// sets a nil one to a private engine.New(0) that its inner folds share.
	eng *engine.Engine
}

// SetEngine selects the evaluation engine used during training (nil gives
// each Train call a private engine.New(0)).
func (o *Options) SetEngine(e *engine.Engine) { o.eng = e }

// DefaultOptions mirrors the paper's hyper-parameters scaled to this
// benchmark (100 trees throughout; LambdaMART 100 estimators).
func DefaultOptions() Options {
	bit := tree.DefaultOptions()
	ens := tree.DefaultOptions()
	ens.MaxDepth = 6
	sig := tree.DefaultOptions()
	sig.MaxDepth = 6
	des := tree.Options{NumTrees: 60, MaxDepth: 3, LearningRate: 0.12, MinLeaf: 2, Lambda: 1, Subsample: 1}
	return Options{
		Reps:         bog.Variants(),
		BitTreeOpts:  bit,
		EnsembleOpts: ens,
		SignalOpts:   sig,
		DesignOpts:   des,
		LTROpts:      ltr.DefaultOptions(),
	}
}

// Model is a trained RTL-Timer.
type Model struct {
	Opts      Options
	BitModels map[bog.Variant]*tree.Regressor
	Ensemble  *tree.Regressor
	Signal    *tree.Regressor
	Ranker    *ltr.Model
	WNSModel  *tree.Regressor
	TNSModel  *tree.Regressor
	Period    float64
}

// Train fits RTL-Timer on the given designs.
func Train(data []*dataset.DesignData, opts Options) (*Model, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: no training designs")
	}
	if len(opts.Reps) == 0 {
		opts.Reps = bog.Variants()
	}
	for _, dd := range data {
		for _, v := range opts.Reps {
			if dd.Reps[v] == nil {
				return nil, fmt.Errorf("core: design %s lacks representation %v", dd.Spec.Name, v)
			}
		}
	}
	if opts.eng == nil {
		opts.eng = engine.New(0)
	}
	m := &Model{Opts: opts, BitModels: map[bog.Variant]*tree.Regressor{}, Period: data[0].Period}
	m.trainBitAndEnsemble(data, 1.0)

	// ---- Stage 3: signal-level regression and ranking. ----
	var sigX [][]float64
	var sigY []float64
	var queries []ltr.Query
	for _, dd := range data {
		bitPred := m.Ensemble.PredictAll(m.ensembleRows(dd))
		feats, labels, _ := m.signalRows(dd, bitPred)
		sigX = append(sigX, feats...)
		sigY = append(sigY, labels...)
		queries = append(queries, RankQuery(feats, labels))
	}
	sopts := opts.SignalOpts
	sopts.Seed = opts.Seed + 202
	m.Signal = tree.TrainL2(sigX, sigY, sopts)
	lopts := opts.LTROpts
	lopts.Seed = opts.Seed + 303
	m.Ranker = ltr.Train(queries, lopts)

	// ---- Stage 4: design-level WNS/TNS models. ----
	// The raw slack aggregation of bit-wise predictions is biased on
	// unseen designs (stacking leak), so the design models are fit on
	// OUT-OF-FOLD raw features: inner models trained without each design
	// produce the aggregation features it contributes to training.
	desX := m.oofDesignRows(data)
	var wnsY, tnsY []float64
	for _, dd := range data {
		wnsY = append(wnsY, dd.LabelWNS)
		// TNS spans three orders of magnitude across designs; the model
		// fits the log-compressed violation and Predict inverts it.
		tnsY = append(tnsY, math.Log1p(-dd.LabelTNS))
	}
	dopts := opts.DesignOpts
	dopts.Seed = opts.Seed + 404
	m.WNSModel = tree.TrainL2(desX, wnsY, dopts)
	dopts.Seed = opts.Seed + 405
	m.TNSModel = tree.TrainL2(desX, tnsY, dopts)
	return m, nil
}

// RankQuery is the LambdaMART query over one design's rows: relevance is
// 3 - the criticality group of each row's label.
func RankQuery(X [][]float64, labels []float64) ltr.Query {
	q := ltr.Query{X: X}
	for _, g := range metrics.GroupOf(labels) {
		q.Rel = append(q.Rel, metrics.NumGroups-1-g)
	}
	return q
}

// trainBitAndEnsemble fits stages 1 and 2 on the given designs. sizeFactor
// scales tree counts (inner OOF folds use smaller models).
func (m *Model) trainBitAndEnsemble(data []*dataset.DesignData, sizeFactor float64) {
	opts := m.Opts
	scale := func(o tree.Options) tree.Options {
		o.NumTrees = int(float64(o.NumTrees) * sizeFactor)
		if o.NumTrees < 10 {
			o.NumTrees = 10
		}
		return o
	}
	// The per-representation bit models are independent given the data and
	// their per-variant seeds, so they train concurrently on the engine.
	bitModels := make([]*tree.Regressor, len(opts.Reps))
	opts.eng.ForEach(len(opts.Reps), func(vi int) {
		v := opts.Reps[vi]
		X, groups, labels := dataset.PathGroups(data, v, opts.NoSampling)
		topts := scale(opts.BitTreeOpts)
		topts.Seed = opts.Seed + int64(v)
		topts.BaseScore = metrics.Mean(labels)
		bitModels[vi] = tree.Train(X, len(X), tree.GroupMaxObjective(groups, labels), topts)
	})
	for vi, v := range opts.Reps {
		m.BitModels[v] = bitModels[vi]
	}
	var ensX [][]float64
	var ensY []float64
	for _, dd := range data {
		ensX = append(ensX, m.ensembleRows(dd)...)
		ensY = append(ensY, dd.EPLabels...)
	}
	eopts := scale(opts.EnsembleOpts)
	eopts.Seed = opts.Seed + 101
	m.Ensemble = tree.TrainL2(ensX, ensY, eopts)
}

// oofDesignRows computes design-level feature rows using inner
// leave-group-out models, so the raw aggregation features carry the same
// out-of-sample bias they will have at prediction time.
func (m *Model) oofDesignRows(data []*dataset.DesignData) [][]float64 {
	const innerFolds = 4
	rows := make([][]float64, len(data))
	if len(data) < innerFolds+1 {
		// Too few designs for inner folds: fall back to in-sample rows.
		for di, dd := range data {
			bitPred := m.Ensemble.PredictAll(m.ensembleRows(dd))
			rows[di] = m.designRow(dd, bitPred)
		}
		return rows
	}
	// Inner folds are independent models over disjoint hold-out sets, so
	// they train concurrently; each writes only its own hold-out rows.
	m.Opts.eng.ForEach(innerFolds, func(f int) {
		var trainSet []*dataset.DesignData
		var holdIdx []int
		for di, dd := range data {
			if di%innerFolds == f {
				holdIdx = append(holdIdx, di)
			} else {
				trainSet = append(trainSet, dd)
			}
		}
		inner := &Model{Opts: m.Opts, BitModels: map[bog.Variant]*tree.Regressor{}, Period: m.Period}
		inner.Opts.Seed = m.Opts.Seed + int64(1000+f)
		inner.trainBitAndEnsemble(trainSet, 0.5)
		for _, di := range holdIdx {
			dd := data[di]
			bitPred := inner.Ensemble.PredictAll(inner.ensembleRows(dd))
			rows[di] = inner.designRow(dd, bitPred)
		}
	})
	return rows
}

// ensembleRows builds the stage-2 feature rows for every labeled endpoint
// of a design: per-rep max-path predictions, their statistics, and the
// design/cone features from the first representation.
func (m *Model) ensembleRows(dd *dataset.DesignData) [][]float64 {
	reps := m.Opts.Reps
	ref := dd.Reps[reps[0]]
	nEP := len(dd.EPRefs)
	perRep := make([][]float64, len(reps))
	for ri, v := range reps {
		rep := dd.Reps[v]
		perRep[ri] = dataset.GroupMax(rep.Groups, m.BitModels[v].PredictAll(rep.X), m.Opts.NoSampling)
	}
	rows := make([][]float64, nEP)
	for i := 0; i < nEP; i++ {
		var v []float64
		stats := make([]float64, 0, len(reps))
		for ri := range reps {
			v = append(v, perRep[ri][i])
			stats = append(stats, perRep[ri][i])
		}
		maxv, minv := stats[0], stats[0]
		for _, s := range stats {
			if s > maxv {
				maxv = s
			}
			if s < minv {
				minv = s
			}
		}
		v = append(v, maxv, minv, metrics.Mean(stats), metrics.Std(stats))
		// Design and cone features generalize across designs (§4.3).
		ep := dd.EPIndex[i]
		cone := ref.Ext.Cone(ep)
		v = append(v, ref.Ext.Rank(ep),
			math.Log1p(float64(cone.DrivingRegs)),
			math.Log1p(float64(cone.Nodes)))
		v = append(v, ref.Ext.DesignVector()...)
		v = append(v, ref.EPPseudo[i])
		rows[i] = v
	}
	return rows
}

// signalRows aggregates bit predictions to signal-level feature rows,
// signals sorted by name. Returns features, labels (signal max netlist AT)
// and signal names.
func (m *Model) signalRows(dd *dataset.DesignData, bitPred []float64) ([][]float64, []float64, []string) {
	rep := dd.Reps[m.Opts.Reps[0]]
	sigs := dd.Signals()
	sort.Slice(sigs, func(i, j int) bool { return sigs[i].Name < sigs[j].Name })
	var feats [][]float64
	var labels []float64
	var names []string
	dv := rep.Ext.DesignVector()
	for _, sig := range sigs {
		preds := make([]float64, 0, len(sig.EPs))
		label := math.Inf(-1)
		var rank, regs, pseudo float64
		for _, i := range sig.EPs {
			preds = append(preds, bitPred[i])
			if dd.EPLabels[i] > label {
				label = dd.EPLabels[i]
			}
			ep := dd.EPIndex[i]
			if r := rep.Ext.Rank(ep); r > rank {
				rank = r
			}
			if r := math.Log1p(float64(rep.Ext.Cone(ep).DrivingRegs)); r > regs {
				regs = r
			}
			if rep.EPPseudo[i] > pseudo {
				pseudo = rep.EPPseudo[i]
			}
		}
		maxp := preds[0]
		for _, p := range preds {
			if p > maxp {
				maxp = p
			}
		}
		row := []float64{
			maxp,
			metrics.Mean(preds),
			metrics.Std(preds),
			math.Log1p(float64(len(preds))),
			rank,
			regs,
			pseudo, // signal max pseudo-STA arrival (path-level feature)
		}
		row = append(row, dv...)
		feats = append(feats, row)
		labels = append(labels, label)
		names = append(names, sig.Name)
	}
	return feats, labels, names
}

// SlackSummary returns the WNS and TNS of arrival times at a clock
// period: slack is period - arrival - Setup, WNS is the least slack (0
// with no arrivals) and TNS sums the negative slacks.
func SlackSummary(period float64, arrivals []float64) (wns, tns float64) {
	wns = math.Inf(1)
	for _, at := range arrivals {
		slack := period - at - Setup
		if slack < wns {
			wns = slack
		}
		if slack < 0 {
			tns += slack
		}
	}
	if len(arrivals) == 0 {
		wns = 0
	}
	return wns, tns
}

// designRow builds the WNS/TNS model input for one design.
func (m *Model) designRow(dd *dataset.DesignData, bitPred []float64) []float64 {
	rawWNS, rawTNS := SlackSummary(dd.Period, bitPred)
	rep := dd.Reps[m.Opts.Reps[0]]
	// Pseudo-STA raw WNS/TNS on the first representation complements the
	// learned aggregation.
	psWNS, psTNS := SlackSummary(dd.Period, rep.EPPseudo)
	row := []float64{
		rawWNS, rawTNS,
		math.Log1p(maxf(0, -rawTNS)),
		psWNS, psTNS,
		math.Log1p(maxf(0, -psTNS)),
		math.Log1p(float64(len(bitPred))),
		metrics.Mean(bitPred),
		dd.Period,
	}
	row = append(row, rep.Ext.DesignVector()...)
	return row
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// SignalPrediction is RTL-Timer's output for one sequential RTL signal.
type SignalPrediction struct {
	Name      string
	AT        float64 // predicted max arrival time over the signal's bits
	Slack     float64 // period - AT - setup
	RankScore float64 // LambdaMART criticality score (higher = worse)
	Group     int     // criticality group 0..3 (0 = top 5%)
}

// DesignPrediction is RTL-Timer's full output for one design.
type DesignPrediction struct {
	BitRefs []string
	BitAT   []float64 // ensemble bit-wise predictions, aligned with BitRefs
	Signals []SignalPrediction
	WNS     float64
	TNS     float64
	Period  float64
}

// SignalByName finds a signal prediction.
func (p *DesignPrediction) SignalByName(name string) (SignalPrediction, bool) {
	for _, s := range p.Signals {
		if s.Name == name {
			return s, true
		}
	}
	return SignalPrediction{}, false
}

// Predict runs the full RTL-Timer inference pipeline on one design.
func (m *Model) Predict(dd *dataset.DesignData) *DesignPrediction {
	bitPred := m.Ensemble.PredictAll(m.ensembleRows(dd))
	out := &DesignPrediction{
		BitRefs: append([]string(nil), dd.EPRefs...),
		BitAT:   bitPred,
		Period:  dd.Period,
	}
	feats, _, names := m.signalRows(dd, bitPred)
	rankScores := m.Ranker.ScoreAll(feats)
	ats := m.Signal.PredictAll(feats)
	groups := metrics.GroupOf(rankScores)
	for i, name := range names {
		out.Signals = append(out.Signals, SignalPrediction{
			Name:      name,
			AT:        ats[i],
			Slack:     dd.Period - ats[i] - Setup,
			RankScore: rankScores[i],
			Group:     groups[i],
		})
	}
	drow := m.designRow(dd, bitPred)
	out.WNS = m.WNSModel.Predict(drow)
	out.TNS = -math.Expm1(maxf(0, m.TNSModel.Predict(drow)))
	return out
}

// SignalLabelVectors returns aligned (label, prediction AT, rank score)
// slices over sequential signals.
func SignalLabelVectors(dd *dataset.DesignData, p *DesignPrediction) (labels, preds, rankScores []float64) {
	truth := dd.SignalLabels()
	for _, s := range p.Signals {
		lab, ok := truth[s.Name]
		if !ok {
			continue
		}
		labels = append(labels, lab)
		preds = append(preds, s.AT)
		rankScores = append(rankScores, s.RankScore)
	}
	return labels, preds, rankScores
}
