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

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config { return Config{Folds: 10} }

// FastConfig is a reduced configuration for tests and benchmarks.
func FastConfig() Config { return Config{Folds: 3, Fast: true} }

// Suite caches the dataset and cross-validated predictions shared by the
// experiments.
type Suite struct {
	Cfg Config

	eng *engine.Engine

	once sync.Once
	err  error
	data []*dataset.DesignData

	cvOnce sync.Once
	cvErr  error
	cvPred map[int]*core.DesignPrediction // per design index
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
	return &Suite{Cfg: cfg, eng: eng}
}

// CacheStats exposes the suite engine's representation-cache counters:
// across every table and figure the period-free cache performs exactly
// one graph build per (design, variant), everything else is a hit.
func (s *Suite) CacheStats() engine.Stats { return s.eng.Stats() }

// Data builds (once) the 21-design dataset with sequence features.
func (s *Suite) Data() ([]*dataset.DesignData, error) {
	s.once.Do(func() {
		s.data, s.err = dataset.BuildAll(designs.All(), dataset.BuildOptions{
			WithSeqs: true,
			Scale:    s.Cfg.Scale,
			Seed:     s.Cfg.Seed,
			Engine:   s.eng,
		})
	})
	return s.data, s.err
}

// coreOptions returns the RTL-Timer training configuration for this suite.
func (s *Suite) coreOptions() core.Options {
	o := core.DefaultOptions()
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

// CrossValidate trains RTL-Timer per fold and predicts every design from a
// model that never saw it. Results are cached for reuse across tables.
func (s *Suite) CrossValidate() (map[int]*core.DesignPrediction, error) {
	s.cvOnce.Do(func() {
		s.cvPred, s.cvErr = s.crossValidateOpts(s.coreOptions())
	})
	return s.cvPred, s.cvErr
}

func (s *Suite) crossValidateOpts(opts core.Options) (map[int]*core.DesignPrediction, error) {
	data, err := s.Data()
	if err != nil {
		return nil, err
	}
	// Folds are independent (each trains on its own complement and
	// predicts its own test designs), so they fan out over the engine;
	// every fold writes only its own designs' slots.
	folds := dataset.Folds(len(data), s.Cfg.Folds, s.Cfg.Seed+7)
	preds := make([]*core.DesignPrediction, len(data))
	err = s.eng.ForEachErr(len(folds), func(fi int) error {
		fold := folds[fi]
		inFold := map[int]bool{}
		for _, d := range fold {
			inFold[d] = true
		}
		var train []*dataset.DesignData
		for i, dd := range data {
			if !inFold[i] {
				train = append(train, dd)
			}
		}
		model, err := core.Train(train, opts)
		if err != nil {
			return err
		}
		for _, d := range fold {
			preds[d] = model.Predict(data[d])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[int]*core.DesignPrediction{}
	for d, p := range preds {
		if p != nil {
			out[d] = p
		}
	}
	return out, nil
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
	labels := dd.Reps[bog.SOG].EPLabels
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

// coreTrainAll trains RTL-Timer on the full dataset (used by analyses that
// do not require held-out designs, e.g. feature importance).
func coreTrainAll(s *Suite, data []*dataset.DesignData) (*core.Model, error) {
	return core.Train(data, s.coreOptions())
}

func meanOf(xs []float64) float64 { return metrics.Mean(xs) }
