// Package exp regenerates every table and figure of the paper's evaluation
// (§4) on the benchmark suite: Table 2 (feature correlations), Table 3
// (benchmark statistics), Table 4 (fine-grained and overall modeling
// accuracy with all ablations and baselines), Table 5 (representation
// variants and ensemble), Table 6 (prediction-guided synthesis
// optimization), Figures 4 and 5, and the §4.5 runtime analysis.
package exp

import (
	"fmt"
	"strings"
	"sync"

	"rtltimer/internal/bog"
	"rtltimer/internal/core"
	"rtltimer/internal/dataset"
	"rtltimer/internal/designs"
	"rtltimer/internal/engine"
	"rtltimer/internal/metrics"
)

// Config controls experiment scale.
type Config struct {
	// Folds is the number of cross-validation folds over designs
	// (paper: 10). Designs in a test fold are never trained on.
	Folds int
	// Fast reduces model sizes for quick runs (CI, go test).
	Fast bool
	// Scale overrides every design's scale knob when > 0.
	Scale int
	Seed  int64
	// Jobs bounds the evaluation engine's concurrency (0 = GOMAXPROCS).
	Jobs int
	// CacheDir enables the engine's persistent on-disk representation
	// cache ("" = memory only): repeated experiment runs then skip
	// bit-blasting and the forward STA pass for every unchanged design.
	CacheDir string
}

// FastConfig is a reduced configuration for tests and benchmarks.
func FastConfig() Config { return Config{Folds: 3, Fast: true} }

// Suite caches the dataset and the trained models shared by the
// experiments.
type Suite struct {
	Cfg Config

	eng  *engine.Engine
	data func() ([]*dataset.DesignData, error) // built once
	full func() (*core.Model, error)           // RTL-Timer trained once on every design

	mu sync.Mutex
	cv map[cvKey]func() ([]*core.DesignPrediction, error)
}

// cvKey names one cross-validated RTL-Timer configuration: the
// representations it trains on, in order, and whether it samples paths.
type cvKey struct {
	reps       string
	noSampling bool
}

// NewSuite creates an experiment suite with its own evaluation engine
// bounded at cfg.Jobs workers (and, when cfg.CacheDir is set, backed by
// the persistent representation cache).
func NewSuite(cfg Config) *Suite {
	if cfg.Folds == 0 {
		cfg.Folds = 10
	}
	eng := engine.New(cfg.Jobs)
	if cfg.CacheDir != "" {
		eng.SetCacheDir(cfg.CacheDir)
	}
	s := &Suite{Cfg: cfg, eng: eng, cv: map[cvKey]func() ([]*core.DesignPrediction, error){}}
	s.data = sync.OnceValues(func() ([]*dataset.DesignData, error) {
		return dataset.BuildAll(designs.All(), dataset.BuildOptions{
			WithSeqs: true,
			Scale:    cfg.Scale,
			Engine:   eng,
		})
	})
	s.full = sync.OnceValues(func() (*core.Model, error) {
		data, err := s.Data()
		if err != nil {
			return nil, err
		}
		return core.Train(data, s.coreOptions(bog.Variants(), false))
	})
	return s
}

// CacheStats exposes the suite engine's representation-cache counters:
// across every table and figure the period-free cache performs exactly
// one graph build per (design, variant), everything else is a hit.
func (s *Suite) CacheStats() engine.Stats { return s.eng.Stats() }

// Data builds (once) the 21-design dataset with sequence features.
func (s *Suite) Data() ([]*dataset.DesignData, error) { return s.data() }

// coreOptions returns the RTL-Timer training configuration for this suite
// on representations reps, sampling paths unless noSampling. These two are
// the only options any experiment varies.
func (s *Suite) coreOptions(reps []bog.Variant, noSampling bool) core.Options {
	o := core.DefaultOptions()
	o.Reps = reps
	o.NoSampling = noSampling
	o.Seed = s.Cfg.Seed
	if s.Cfg.Fast {
		o.BitTreeOpts.NumTrees = 40
		o.BitTreeOpts.MaxDepth = 6
		o.EnsembleOpts.NumTrees = 40
		o.SignalOpts.NumTrees = 40
		o.LTROpts.NumTrees = 30
	}
	o.SetEngine(s.eng)
	return o
}

// crossValidate predicts every suite design with an RTL-Timer trained, per
// fold, on the designs outside that fold (coreOptions(reps, noSampling)).
// The predictions are indexed by design. Each configuration trains once
// per Suite, and every table and figure that reads it shares the models.
func (s *Suite) crossValidate(reps []bog.Variant, noSampling bool) ([]*core.DesignPrediction, error) {
	key := cvKey{reps: repsName(reps), noSampling: noSampling}
	s.mu.Lock()
	run, ok := s.cv[key]
	if !ok {
		run = sync.OnceValues(func() ([]*core.DesignPrediction, error) {
			data, err := s.Data()
			if err != nil {
				return nil, err
			}
			return s.crossPredict(data, s.folds(data, s.Cfg.Folds), s.coreOptions(reps, noSampling))
		})
		s.cv[key] = run
	}
	s.mu.Unlock()
	return run()
}

// fold is one cross-validation split over designs (§4.1): the indices of
// its held-out designs, and the designs trained on, which exclude them.
type fold struct {
	test  []int
	train []*dataset.DesignData
}

// folds splits data into k folds, deterministically in (len(data), k,
// Cfg.Seed). Per-design metrics are accumulated fold by fold, each fold's
// designs in turn.
func (s *Suite) folds(data []*dataset.DesignData, k int) []fold {
	var out []fold
	for _, test := range dataset.Folds(len(data), k, s.Cfg.Seed+7) {
		held := map[int]bool{}
		for _, d := range test {
			held[d] = true
		}
		f := fold{test: test}
		for i, dd := range data {
			if !held[i] {
				f.train = append(f.train, dd)
			}
		}
		out = append(out, f)
	}
	return out
}

// crossPredict trains one model per fold and predicts that fold's designs
// with it, returning the predictions indexed by design. Folds are
// independent, so they fan out over the engine; every fold writes only
// its own designs' slots.
func (s *Suite) crossPredict(data []*dataset.DesignData, folds []fold, opts core.Options) ([]*core.DesignPrediction, error) {
	preds := make([]*core.DesignPrediction, len(data))
	err := s.eng.ForEachErr(len(folds), func(fi int) error {
		model, err := core.Train(folds[fi].train, opts)
		if err != nil {
			return err
		}
		for _, d := range folds[fi].test {
			preds[d] = model.Predict(data[d])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return preds, nil
}

// repsName joins representation names with "+", in order ("SOG+AIG").
func repsName(reps []bog.Variant) string {
	names := make([]string, len(reps))
	for i, v := range reps {
		names[i] = v.String()
	}
	return strings.Join(names, "+")
}

// ---- table rendering ----

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	b.WriteString(t.Title + "\n")
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total) + "\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ",") + "\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ",") + "\n")
	}
	return b.String()
}

// ---- shared evaluation helpers ----

// bitEval computes per-design bit-wise metrics of arbitrary per-endpoint
// predictions (aligned with the design's SOG labeled endpoints).
func bitEval(dd *dataset.DesignData, preds []float64) (r, mape, covr float64) {
	labels := dd.EPLabels
	r = metrics.Pearson(labels, preds)
	mape = metrics.MAPE(labels, preds)
	covr = metrics.COVR(labels, preds)
	return
}

// signalEval computes signal-wise metrics from a core prediction.
func signalEval(dd *dataset.DesignData, p *core.DesignPrediction) (r, mape, covrReg, covrRank float64) {
	labels, preds, ranks := core.SignalLabelVectors(dd, p)
	r = metrics.Pearson(labels, preds)
	mape = metrics.MAPE(labels, preds)
	covrReg = metrics.COVR(labels, preds)
	covrRank = metrics.COVR(labels, ranks)
	return
}

func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }
