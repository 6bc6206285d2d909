package exp

import (
	"math"

	"rtltimer/internal/bog"
	"rtltimer/internal/core"
	"rtltimer/internal/dataset"
	"rtltimer/internal/metrics"
	"rtltimer/internal/ml/gnn"
	"rtltimer/internal/ml/ltr"
	"rtltimer/internal/ml/mlp"
	"rtltimer/internal/ml/transformer"
	"rtltimer/internal/ml/tree"
)

// bitPredictor is one baseline row of Table 4's bit-wise comparison:
// trained on a set of designs, it predicts arrival times for every labeled
// endpoint of a test design (aligned with the design's SOG endpoints).
type bitPredictor interface {
	name() string
	train(train []*dataset.DesignData, s *Suite)
	predict(dd *dataset.DesignData) []float64
}

// ---- MLP rows (SOG representation) ----

type mlpBit struct {
	label      string
	noSampling bool
	model      *mlp.Model
}

func (m *mlpBit) name() string { return m.label }

func (m *mlpBit) train(train []*dataset.DesignData, s *Suite) {
	X, groups, labels := dataset.PathGroups(train, bog.SOG, m.noSampling)
	opts := mlp.DefaultOptions()
	opts.Seed = s.Cfg.Seed + 11
	if s.Cfg.Fast {
		opts.Epochs = 10
		opts.Hidden = []int{32, 32}
	}
	m.model = mlp.TrainGroupMax(X, groups, labels, opts)
}

func (m *mlpBit) predict(dd *dataset.DesignData) []float64 {
	rep := dd.Reps[bog.SOG]
	return dataset.GroupMax(rep.Groups, m.model.PredictAll(rep.X), m.noSampling)
}

// ---- Transformer row (SOG, sequence features) ----

type transformerBit struct {
	model *transformer.Model
}

func (t *transformerBit) name() string { return "Transformer" }

func (t *transformerBit) train(train []*dataset.DesignData, s *Suite) {
	// Path rows are numbered group by group, so row i is sample i.
	X, groups, labels := dataset.PathGroups(train, bog.SOG, false)
	samples := make([]transformer.Sample, 0, len(X))
	for _, dd := range train {
		for _, seq := range dd.Reps[bog.SOG].Seqs {
			samples = append(samples, transformer.Sample{Seq: seq, Global: globalOf(X[len(samples)])})
		}
	}
	opts := transformer.DefaultOptions()
	opts.Seed = s.Cfg.Seed + 13
	if s.Cfg.Fast {
		opts.Epochs = 2
	}
	t.model = transformer.Train(samples, groups, labels, opts)
}

// globalOf extracts the design+cone prefix of a path vector as the
// transformer's global features.
func globalOf(v []float64) []float64 { return v[:7] }

func (t *transformerBit) predict(dd *dataset.DesignData) []float64 {
	rep := dd.Reps[bog.SOG]
	pred := make([]float64, len(rep.X))
	for r, x := range rep.X {
		pred[r] = t.model.Predict(&transformer.Sample{Seq: rep.Seqs[r], Global: globalOf(x)})
	}
	return dataset.GroupMax(rep.Groups, pred, false)
}

// ---- GNN baseline row ----

type gnnBit struct {
	model *gnn.Model
}

func (g *gnnBit) name() string { return "Customized GNN" }

func gnnData(dd *dataset.DesignData) *gnn.GraphData {
	rep := dd.Reps[bog.SOG]
	gr := rep.Graph
	lv := gr.Levels()
	fo := gr.FanoutCounts()
	gd := &gnn.GraphData{}
	for i := range gr.Nodes {
		feat := make([]float64, 11)
		feat[int(gr.Nodes[i].Op)] = 1
		feat[9] = math.Log1p(float64(lv[i])) / 5
		feat[10] = math.Log1p(float64(fo[i])) / 5
		gd.Feats = append(gd.Feats, feat)
		nd := &gr.Nodes[i]
		var es []int32
		for j := 0; j < nd.NumFanin(); j++ {
			es = append(es, int32(nd.Fanin[j]))
		}
		gd.Fanins = append(gd.Fanins, es)
	}
	for i, ep := range dd.EPIndex {
		gd.EPRows = append(gd.EPRows, int(gr.Endpoints[ep].D))
		gd.Labels = append(gd.Labels, dd.EPLabels[i])
	}
	return gd
}

func (g *gnnBit) train(train []*dataset.DesignData, s *Suite) {
	var graphs []*gnn.GraphData
	for _, dd := range train {
		graphs = append(graphs, gnnData(dd))
	}
	opts := gnn.DefaultOptions()
	opts.Seed = s.Cfg.Seed + 17
	if s.Cfg.Fast {
		opts.Epochs = 6
	}
	g.model = gnn.Train(graphs, opts)
}

func (g *gnnBit) predict(dd *dataset.DesignData) []float64 {
	return g.model.Predict(gnnData(dd))
}

// ---- Table 4 fine-grained ----

// Table4FineGrained reproduces the bit-wise and signal-wise halves of
// Table 4: RTL-Timer against the model ablations and the GNN baseline,
// plus the signal-level ablations (no bit-wise modeling, no LTR).
func (s *Suite) Table4FineGrained() (*Table, error) {
	data, err := s.Data()
	if err != nil {
		return nil, err
	}
	folds := s.folds(data, s.Cfg.Folds)
	noSample, err := s.crossValidate(bog.Variants(), true)
	if err != nil {
		return nil, err
	}
	cv, err := s.crossValidate(bog.Variants(), false)
	if err != nil {
		return nil, err
	}

	// Every bit-wise row holds each design's held-out prediction: the
	// RTL-Timer rows from the cross-validated models, the baselines
	// trained per fold here.
	type bitRow struct {
		name  string
		preds [][]float64
	}
	bitATs := func(ps []*core.DesignPrediction) [][]float64 {
		out := make([][]float64, len(ps))
		for d, p := range ps {
			out[d] = p.BitAT
		}
		return out
	}
	bitRows := []bitRow{{"Tree-based w/o sample", bitATs(noSample)}}
	for _, bp := range []bitPredictor{
		&mlpBit{label: "MLP"},
		&mlpBit{label: "MLP w/o sample", noSampling: true},
		&transformerBit{},
		&gnnBit{},
	} {
		row := bitRow{bp.name(), make([][]float64, len(data))}
		for _, f := range folds {
			bp.train(f.train, s)
			for _, d := range f.test {
				row.preds[d] = bp.predict(data[d])
			}
		}
		bitRows = append(bitRows, row)
	}
	bitRows = append(bitRows, bitRow{"RTL-Timer", bitATs(cv)})

	// Signal-level rows from the RTL-Timer predictions and the signal
	// ablations.
	var sigR, sigMAPE, sigCOVRReg, sigCOVRRank, sigCOVRNoLTR []float64
	var noBitR, noBitCOVR, noBitRankCOVR []float64
	for _, f := range folds {
		for _, d := range f.test {
			p := cv[d]
			r, mape, covrReg, covrRank := signalEval(data[d], p)
			sigR = append(sigR, r)
			sigMAPE = append(sigMAPE, mape)
			sigCOVRReg = append(sigCOVRReg, covrReg)
			sigCOVRRank = append(sigCOVRRank, covrRank)
			// "Disabling LTR": rank by the regression output instead.
			labels, preds, _ := core.SignalLabelVectors(data[d], p)
			sigCOVRNoLTR = append(sigCOVRNoLTR, metrics.COVR(labels, preds))
		}
		// "w/o bit-wise": model signals directly from slowest-path
		// signal-aggregated features.
		nbReg, nbRank := trainNoBitwise(f.train, s)
		for _, d := range f.test {
			labels, preds, ranks := predictNoBitwise(data[d], nbReg, nbRank)
			noBitR = append(noBitR, metrics.Pearson(labels, preds))
			noBitCOVR = append(noBitCOVR, metrics.COVR(labels, preds))
			noBitRankCOVR = append(noBitRankCOVR, metrics.COVR(labels, ranks))
		}
	}

	t := &Table{
		Title:  "Table 4 (fine-grained): modeling accuracy comparison and ablation study",
		Header: []string{"Level", "Method", "R", "MAPE(%)", "COVR(%)"},
	}
	for _, row := range bitRows {
		var rs, mapes, covrs []float64
		for _, f := range folds {
			for _, d := range f.test {
				r, mape, covr := bitEval(data[d], row.preds[d])
				rs = append(rs, r)
				mapes = append(mapes, mape)
				covrs = append(covrs, covr)
			}
		}
		t.Rows = append(t.Rows, []string{"Bit-wise", row.name,
			fmtF(metrics.Mean(rs), 2), fmtF(metrics.Mean(mapes), 0), fmtF(metrics.Mean(covrs), 0)})
	}
	t.Rows = append(t.Rows,
		[]string{"Signal-wise", "Regression w/o bit-wise", fmtF(metrics.Mean(noBitR), 2), "/", fmtF(metrics.Mean(noBitCOVR), 0)},
		[]string{"Signal-wise", "Ranking w/o bit-wise", "/", "/", fmtF(metrics.Mean(noBitRankCOVR), 0)},
		[]string{"Signal-wise", "RTL-Timer w/o LTR", "/", "/", fmtF(metrics.Mean(sigCOVRNoLTR), 0)},
		[]string{"Signal-wise", "RTL-Timer (regression)", fmtF(metrics.Mean(sigR), 2), fmtF(metrics.Mean(sigMAPE), 0), fmtF(metrics.Mean(sigCOVRReg), 0)},
		[]string{"Signal-wise", "RTL-Timer (ranking)", "/", "/", fmtF(metrics.Mean(sigCOVRRank), 0)},
	)
	return t, nil
}

// signalDirectFeatures builds signal-level features without any bit-wise
// model: the slowest-path vectors of a signal's bits are aggregated
// directly (the paper's "removing bit-wise prediction" ablation).
func signalDirectFeatures(dd *dataset.DesignData) (X [][]float64, y []float64) {
	rep := dd.Reps[bog.SOG]
	slowest := func(i int) []float64 { return rep.X[rep.Groups[i][0]] }
	for _, sig := range dd.Signals() {
		vec := append([]float64(nil), slowest(sig.EPs[0])...)
		label := dd.EPLabels[sig.EPs[0]]
		for _, i := range sig.EPs[1:] {
			v := slowest(i)
			for fi := range vec {
				if v[fi] > vec[fi] {
					vec[fi] = v[fi] // elementwise max over bits
				}
			}
			if dd.EPLabels[i] > label {
				label = dd.EPLabels[i]
			}
		}
		X = append(X, append(vec, math.Log1p(float64(len(sig.EPs)))))
		y = append(y, label)
	}
	return X, y
}

func trainNoBitwise(train []*dataset.DesignData, s *Suite) (*tree.Regressor, *ltr.Model) {
	var X [][]float64
	var y []float64
	var queries []ltr.Query
	for _, dd := range train {
		dx, dy := signalDirectFeatures(dd)
		X = append(X, dx...)
		y = append(y, dy...)
		queries = append(queries, core.RankQuery(dx, dy))
	}
	topts := tree.DefaultOptions()
	if s.Cfg.Fast {
		topts.NumTrees = 40
	}
	topts.Seed = s.Cfg.Seed + 23
	reg := tree.TrainL2(X, y, topts)
	lopts := ltr.DefaultOptions()
	if s.Cfg.Fast {
		lopts.NumTrees = 30
	}
	lopts.Seed = s.Cfg.Seed + 29
	rank := ltr.Train(queries, lopts)
	return reg, rank
}

func predictNoBitwise(dd *dataset.DesignData, reg *tree.Regressor, rank *ltr.Model) (labels, preds, ranks []float64) {
	X, y := signalDirectFeatures(dd)
	return y, reg.PredictAll(X), rank.ScoreAll(X)
}

// ---- Table 4 overall (WNS / TNS) ----

// Table4Overall reproduces the design-level WNS and TNS comparison against
// the SNS-style, MasterRTL-style and ICCAD'22-style baselines.
func (s *Suite) Table4Overall() (*Table, error) {
	data, err := s.Data()
	if err != nil {
		return nil, err
	}
	cv, err := s.crossValidate(bog.Variants(), false)
	if err != nil {
		return nil, err
	}

	// Collected per-design predictions for each method.
	n := len(data)
	type preds struct{ wns, tns []float64 }
	methods := map[string]*preds{}
	for _, m := range []string{"SNS-style", "ICCAD22-style", "MasterRTL-style", "RTL-Timer"} {
		methods[m] = &preds{wns: make([]float64, n), tns: make([]float64, n)}
	}
	labelW := make([]float64, n)
	labelT := make([]float64, n)
	for i, dd := range data {
		labelW[i] = dd.LabelWNS
		labelT[i] = dd.LabelTNS
		methods["RTL-Timer"].wns[i] = cv[i].WNS
		methods["RTL-Timer"].tns[i] = cv[i].TNS
	}

	// Baselines over design-level features, trained per fold.
	for _, f := range s.folds(data, s.Cfg.Folds) {
		for _, kind := range []string{"SNS-style", "ICCAD22-style", "MasterRTL-style"} {
			var X [][]float64
			var yw, yt []float64
			for _, dd := range f.train {
				X = append(X, baselineRow(dd, kind))
				yw = append(yw, dd.LabelWNS)
				yt = append(yt, dd.LabelTNS)
			}
			topts := tree.Options{NumTrees: 60, MaxDepth: 3, LearningRate: 0.12, MinLeaf: 2, Lambda: 1, Subsample: 1, Seed: s.Cfg.Seed}
			wm := tree.TrainL2(X, yw, topts)
			tm := tree.TrainL2(X, yt, topts)
			for _, d := range f.test {
				row := baselineRow(data[d], kind)
				methods[kind].wns[d] = wm.Predict(row)
				methods[kind].tns[d] = tm.Predict(row)
			}
		}
	}

	t := &Table{
		Title:  "Table 4 (overall): design WNS / TNS prediction",
		Header: []string{"Target", "Method", "R", "R2", "MAPE(%)"},
	}
	for _, m := range []string{"SNS-style", "MasterRTL-style", "RTL-Timer"} {
		t.Rows = append(t.Rows, []string{"WNS", m,
			fmtF(metrics.Pearson(labelW, methods[m].wns), 2),
			fmtF(metrics.R2(labelW, methods[m].wns), 2),
			fmtF(metrics.MAPE(labelW, methods[m].wns), 0)})
	}
	for _, m := range []string{"ICCAD22-style", "MasterRTL-style", "RTL-Timer"} {
		t.Rows = append(t.Rows, []string{"TNS", m,
			fmtF(metrics.Pearson(labelT, methods[m].tns), 2),
			fmtF(metrics.R2(labelT, methods[m].tns), 2),
			fmtF(metrics.MAPE(labelT, methods[m].tns), 0)})
	}
	return t, nil
}

// baselineRow is a design's input row for one overall-timing baseline.
func baselineRow(dd *dataset.DesignData, kind string) []float64 {
	rep := dd.Reps[bog.SOG]
	dv := rep.Ext.DesignVector()
	switch kind {
	case "SNS-style": // architecture-level proxies only
		return dv
	case "ICCAD22-style": // AST-ish: cells + endpoint count
		return append(append([]float64(nil), dv...), math.Log1p(float64(len(dd.EPRefs))))
	default: // MasterRTL-style: SOG pseudo timing + design features
		rawW, rawT := core.SlackSummary(dd.Period, rep.EPPseudo)
		return append([]float64{rawW, rawT}, dv...)
	}
}
