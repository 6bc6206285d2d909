// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section (§4). Each benchmark regenerates its artifact
// through the experiment suite and reports the headline numbers as custom
// metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. The suite (dataset construction,
// synthesis ground truth, cross-validated models) is built once and shared.
package rtltimer

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"rtltimer/internal/bog"
	"rtltimer/internal/core"
	"rtltimer/internal/dataset"
	"rtltimer/internal/designs"
	"rtltimer/internal/elab"
	"rtltimer/internal/engine"
	"rtltimer/internal/exp"
	"rtltimer/internal/features"
	"rtltimer/internal/liberty"
	"rtltimer/internal/service"
	"rtltimer/internal/sta"
	"rtltimer/internal/verilog"
)

var (
	benchOnce  sync.Once
	benchSuite *exp.Suite
)

// suite returns the shared experiment suite (fast configuration keeps
// `go test -bench=.` tractable; run cmd/experiments for the full setup).
func suite() *exp.Suite {
	benchOnce.Do(func() {
		benchSuite = exp.NewSuite(exp.FastConfig())
	})
	return benchSuite
}

// metric extracts a numeric cell from a table row identified by key.
func metric(b *testing.B, t *exp.Table, rowKey string, col int) float64 {
	b.Helper()
	for _, row := range t.Rows {
		for _, c := range row {
			if c == rowKey {
				v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
				if err != nil {
					b.Fatalf("cell %q: %v", row[col], err)
				}
				return v
			}
		}
	}
	b.Fatalf("row %q not found", rowKey)
	return 0
}

func BenchmarkTable2Features(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		t, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metric(b, t, "# of level of the timing path", 2), "R_path_levels")
		b.ReportMetric(metric(b, t, "# driving reg of input cone", 2), "R_driving_regs")
	}
}

func BenchmarkTable3Benchmarks(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		t, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(t.Rows)), "families")
	}
}

func BenchmarkTable4FineGrained(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		t, err := s.Table4FineGrained()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metric(b, t, "RTL-Timer", 2), "bitR")
		b.ReportMetric(metric(b, t, "RTL-Timer (regression)", 2), "signalR")
		b.ReportMetric(metric(b, t, "RTL-Timer (ranking)", 4), "COVR")
		b.ReportMetric(metric(b, t, "Customized GNN", 2), "gnnR")
	}
}

func BenchmarkTable4Overall(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		t, err := s.Table4Overall()
		if err != nil {
			b.Fatal(err)
		}
		var wnsR, tnsR float64
		for _, row := range t.Rows {
			if row[1] == "RTL-Timer" && row[0] == "WNS" {
				wnsR, _ = strconv.ParseFloat(row[2], 64)
			}
			if row[1] == "RTL-Timer" && row[0] == "TNS" {
				tnsR, _ = strconv.ParseFloat(row[2], 64)
			}
		}
		b.ReportMetric(wnsR, "WNS_R")
		b.ReportMetric(tnsR, "TNS_R")
	}
}

func BenchmarkTable5Ensemble(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		t, err := s.Table5()
		if err != nil {
			b.Fatal(err)
		}
		// Ensemble column is the last cell of the Avg.R rows.
		for _, row := range t.Rows {
			if row[0] == "Bit-wise Avg.R" {
				v, _ := strconv.ParseFloat(row[len(row)-1], 64)
				b.ReportMetric(v, "ensembleR")
			}
			if row[0] == "Bit-wise Avg.R (std)" {
				v, _ := strconv.ParseFloat(row[len(row)-1], 64)
				b.ReportMetric(v, "ensembleStd")
			}
		}
	}
}

func BenchmarkTable6Optimization(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		t, err := s.Table6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metric(b, t, "Avg1", 5), "dTNS_pred_pct")
		b.ReportMetric(metric(b, t, "Avg1", 4), "dWNS_pred_pct")
	}
}

func BenchmarkFig4Options(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		f, err := s.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Stats["TNS w/ retime+group"]-f.Stats["TNS default"], "dTNS_ns")
	}
}

func BenchmarkFig5aPseudoSTA(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		f, err := s.Fig5a()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Stats["R_SOG"], "R_SOG")
		b.ReportMetric(f.Stats["R_AIG"], "R_AIG")
	}
}

func BenchmarkFig5bBitPrediction(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		f, err := s.Fig5b()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Stats["R"], "R")
	}
}

func BenchmarkFig5cSignalPrediction(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		f, err := s.Fig5c()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Stats["R"], "R")
	}
}

func BenchmarkFig5dOptimizedDistribution(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		f, err := s.Fig5d()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Stats["TNS_optimized"]-f.Stats["TNS_default"], "dTNS_ns")
	}
}

func BenchmarkRuntimeAnalysis(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		if _, err := s.RuntimeReport(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndPrediction measures the user-facing flow of the public
// API: predict a fresh design with a trained model (§4.5: inference is a
// tiny fraction of synthesis runtime).
func BenchmarkEndToEndPrediction(b *testing.B) {
	pred, err := TrainBenchmarkPredictor(Options{Fast: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	src, err := BenchmarkVerilog("b17")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pred.PredictVerilog(src); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Paper-path benchmarks: training and prediction on built data ----

var (
	paperOnce sync.Once
	paperData []*dataset.DesignData
	paperErr  error
)

// paperCorpus returns five training designs and the held-out Vex_2, built
// once: five designs are enough for core.Train's inner out-of-fold
// models. The same corpus pins TestPaperPathDigests' out-of-fold case.
func paperCorpus(b *testing.B) (train []*dataset.DesignData, held *dataset.DesignData) {
	b.Helper()
	paperOnce.Do(func() {
		var specs []designs.Spec
		for _, name := range []string{"b17", "syscdes", "b20", "b22", "Vex_1", "Vex_2"} {
			spec, _ := designs.ByName(name)
			specs = append(specs, spec)
		}
		paperData, paperErr = dataset.BuildAll(specs, dataset.BuildOptions{})
	})
	if paperErr != nil {
		b.Fatal(paperErr)
	}
	return paperData[:5], paperData[5]
}

// paperOptions are TestPaperPathDigests' tree counts on a shared engine.
func paperOptions() core.Options {
	opts := core.DefaultOptions()
	opts.BitTreeOpts.NumTrees = 40
	opts.EnsembleOpts.NumTrees = 40
	opts.SignalOpts.NumTrees = 40
	opts.LTROpts.NumTrees = 30
	opts.Seed = 1
	opts.SetEngine(engine.New(0))
	return opts
}

// BenchmarkTrain prices core.Train on the five-design corpus: the bit
// models, the ensemble, the signal models and the inner out-of-fold
// models behind the WNS/TNS models. Building the corpus is not timed.
func BenchmarkTrain(b *testing.B) {
	train, _ := paperCorpus(b)
	opts := paperOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(train, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict prices Model.Predict on the held-out design's built
// data: ensemble rows, signal rows and the design-level models.
func BenchmarkPredict(b *testing.B) {
	train, held := paperCorpus(b)
	m, err := core.Train(train, paperOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(held)
	}
}

// ---- STA and engine benchmarks (reference vs analyzer) ----

var (
	staGraphOnce sync.Once
	staGraph     *bog.Graph
)

// largestSeedGraph returns the AIG of the largest seed design (Rocket3,
// ~21k nodes), built once and shared by the STA benchmarks.
func largestSeedGraph(b *testing.B) *bog.Graph {
	b.Helper()
	staGraphOnce.Do(func() {
		spec, ok := designs.ByName("Rocket3")
		if !ok {
			return
		}
		parsed, err := verilog.Parse(designs.Generate(spec))
		if err != nil {
			return
		}
		d, err := elab.Elaborate(parsed)
		if err != nil {
			return
		}
		staGraph, _ = bog.Build(d, bog.AIG)
	})
	if staGraph == nil {
		b.Fatal("failed to build Rocket3/AIG")
	}
	return staGraph
}

// BenchmarkSTAReference is the retained original pseudo-STA: every call
// recomputes fanouts, loads and slews from the per-node layout.
func BenchmarkSTAReference(b *testing.B) {
	g := largestSeedGraph(b)
	lib := liberty.DefaultPseudoLib()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sta.AnalyzeReference(g, lib, 0.5)
		if r.WNS > 1e9 {
			b.Fatal("bogus WNS")
		}
	}
}

// BenchmarkSTALevelized is the analyzer's serial forward pass over node
// fanins, with the period-independent state amortized across calls (the
// engine's usage pattern).
func BenchmarkSTALevelized(b *testing.B) {
	g := largestSeedGraph(b)
	a := sta.NewAnalyzer(g, liberty.DefaultPseudoLib())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := a.Analyze(0.5)
		if r.WNS > 1e9 {
			b.Fatal("bogus WNS")
		}
	}
}

// sweepPeriods is the clock-period grid of BenchmarkSweepEngine (a
// typical WNS-vs-clock workload).
var sweepPeriods = []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// BenchmarkSweepEngine is the CLI -sweep workload through the engine: one
// cached representation build (bit-blast + forward pass) per variant,
// then K period materializations per variant. A fresh engine per
// iteration keeps the cache cold so iterations do the full build.
func BenchmarkSweepEngine(b *testing.B) {
	spec, ok := designs.ByName("Rocket3")
	if !ok {
		b.Fatal("no Rocket3")
	}
	src := designs.Generate(spec)
	parsed, err := verilog.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	d, err := elab.Elaborate(parsed)
	if err != nil {
		b.Fatal(err)
	}
	lib := liberty.DefaultPseudoLib()
	tag := engine.DesignTag(spec.Name, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New(1)
		for _, v := range bog.Variants() {
			rr, err := eng.EvalRep(engine.Key{Design: tag, Variant: v}, lib, engine.FixedDesign(d))
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range sweepPeriods {
				if r := rr.At(p); r.WNS > 1e9 {
					b.Fatal("bogus WNS")
				}
			}
		}
		if st := eng.Stats(); st.Builds != int64(len(bog.Variants())) {
			b.Fatalf("sweep performed %d builds, want %d", st.Builds, len(bog.Variants()))
		}
	}
}

// BenchmarkEngineColdBuild is the cold-start cost the persistent cache
// eliminates: per iteration, a fresh engine parses, elaborates, bit-blasts
// all four BOG variants of the largest benchmark design and runs the
// forward STA pass for each — what a CLI timing query pays without the
// disk tier. Feature extraction is not part of it: the extractor walks
// its cones only when a feature is read (BenchmarkFeatureExtraction).
func BenchmarkEngineColdBuild(b *testing.B) {
	spec, ok := designs.ByName("Rocket3")
	if !ok {
		b.Fatal("no Rocket3")
	}
	src := designs.Generate(spec)
	lib := liberty.DefaultPseudoLib()
	tag := engine.DesignTag(spec.Name, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New(1)
		lazy := engine.LazyDesign(src)
		for _, v := range bog.Variants() {
			if _, err := eng.EvalRep(engine.Key{Design: tag, Variant: v}, lib, lazy); err != nil {
				b.Fatal(err)
			}
		}
		if st := eng.Stats(); st.Builds != int64(len(bog.Variants())) {
			b.Fatalf("cold iteration performed %d builds, want %d", st.Builds, len(bog.Variants()))
		}
	}
}

// BenchmarkEngineColdBuildDefaults is BenchmarkEngineColdBuild at the
// CLI's defaults: per iteration, a fresh engine.New(0) (all cores) builds
// the four BOG variants of the largest benchmark design, fanned out on its
// pool the way the CLI's sweep builds them.
func BenchmarkEngineColdBuildDefaults(b *testing.B) {
	spec, ok := designs.ByName("Rocket3")
	if !ok {
		b.Fatal("no Rocket3")
	}
	src := designs.Generate(spec)
	lib := liberty.DefaultPseudoLib()
	tag := engine.DesignTag(spec.Name, src)
	variants := bog.Variants()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New(0)
		lazy := engine.LazyDesign(src)
		err := eng.ForEachErr(len(variants), func(vi int) error {
			_, err := eng.EvalRep(engine.Key{Design: tag, Variant: variants[vi]}, lib, lazy)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		if st := eng.Stats(); st.Builds != int64(len(variants)) {
			b.Fatalf("cold iteration performed %d builds, want %d", st.Builds, len(variants))
		}
	}
}

// BenchmarkBitBlast is the bit-blast stage of a cold build on its own:
// bog.Build of the four BOG variants of the largest benchmark design from
// one elaborated design, which is parsed and elaborated before the timer
// starts.
func BenchmarkBitBlast(b *testing.B) {
	spec, ok := designs.ByName("Rocket3")
	if !ok {
		b.Fatal("no Rocket3")
	}
	parsed, err := verilog.Parse(designs.Generate(spec))
	if err != nil {
		b.Fatal(err)
	}
	d, err := elab.Elaborate(parsed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range bog.Variants() {
			if _, err := bog.Build(d, v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBitBlastSuite is BenchmarkBitBlast over the whole benchmark
// suite: one op bit-blasts the four BOG variants of all 21 designs, which
// are parsed and elaborated before the timer starts. A cold build's
// typical design is a mid-size one, not Rocket3.
func BenchmarkBitBlastSuite(b *testing.B) {
	var ds []*elab.Design
	for _, spec := range designs.All() {
		parsed, err := verilog.Parse(designs.Generate(spec))
		if err != nil {
			b.Fatal(err)
		}
		d, err := elab.Elaborate(parsed)
		if err != nil {
			b.Fatal(err)
		}
		ds = append(ds, d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range ds {
			for _, v := range bog.Variants() {
				if _, err := bog.Build(d, v); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkFeatureExtraction is the extraction stage on its own:
// features.NewExtractor and a State read that forces its walk — one
// input-cone walk per endpoint plus the rank sort — over the four BOG
// variants of the largest benchmark design. No build or disk load pays
// this stage (the extractor is lazy); the first feature read of a result
// does. The graphs and their timing results are built before the timer
// starts.
func BenchmarkFeatureExtraction(b *testing.B) {
	spec, ok := designs.ByName("Rocket3")
	if !ok {
		b.Fatal("no Rocket3")
	}
	parsed, err := verilog.Parse(designs.Generate(spec))
	if err != nil {
		b.Fatal(err)
	}
	d, err := elab.Elaborate(parsed)
	if err != nil {
		b.Fatal(err)
	}
	lib := liberty.DefaultPseudoLib()
	var graphs []*bog.Graph
	var results []*sta.Result
	for _, v := range bog.Variants() {
		g, err := bog.Build(d, v)
		if err != nil {
			b.Fatal(err)
		}
		an := sta.NewAnalyzer(g, lib)
		graphs = append(graphs, g)
		results = append(results, an.At(an.Arrivals(1), 0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, g := range graphs {
			if cones, _ := features.NewExtractor(g, results[j]).State(); len(cones) != len(g.Endpoints) {
				b.Fatalf("%v: %d cones for %d endpoints", g.Variant, len(cones), len(g.Endpoints))
			}
		}
	}
}

// BenchmarkArrivalDigest is the fingerprint stage on its own:
// engine.ArrivalDigest over the arrival vectors of the four BOG variants
// of the largest benchmark design, the work each build, disk load or edit
// does once so warm queries never re-hash. The vectors are built before
// the timer starts.
func BenchmarkArrivalDigest(b *testing.B) {
	spec, ok := designs.ByName("Rocket3")
	if !ok {
		b.Fatal("no Rocket3")
	}
	src := designs.Generate(spec)
	lib := liberty.DefaultPseudoLib()
	eng := engine.New(1)
	var arrivals [][]float64
	for _, v := range bog.Variants() {
		rr, err := eng.EvalRep(engine.Key{Design: engine.DesignTag(spec.Name, src), Variant: v}, lib, engine.LazyDesign(src))
		if err != nil {
			b.Fatal(err)
		}
		arrivals = append(arrivals, rr.Arrival)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, arr := range arrivals {
			if len(engine.ArrivalDigest(arr)) != 64 {
				b.Fatal("digest is not 64 hex digits")
			}
		}
	}
}

// BenchmarkEngineWarmLoad is the same workload served by a warm on-disk
// representation cache: per iteration, a fresh engine restores all four
// variants from disk — no parsing, no bit-blasting, no forward pass, no
// cone walks, and no analyzer static state, which a restore builds only
// on first use. The warm/cold ratio is the cache's headline win and is
// tracked per PR in CI.
func BenchmarkEngineWarmLoad(b *testing.B) {
	spec, ok := designs.ByName("Rocket3")
	if !ok {
		b.Fatal("no Rocket3")
	}
	src := designs.Generate(spec)
	parsed, err := verilog.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	d, err := elab.Elaborate(parsed)
	if err != nil {
		b.Fatal(err)
	}
	lib := liberty.DefaultPseudoLib()
	tag := engine.DesignTag(spec.Name, src)
	dir := b.TempDir()
	warmup := engine.New(1)
	warmup.SetCacheDir(dir)
	for _, v := range bog.Variants() {
		if _, err := warmup.EvalRep(engine.Key{Design: tag, Variant: v}, lib, engine.FixedDesign(d)); err != nil {
			b.Fatal(err)
		}
	}
	noBuild := func() (*elab.Design, error) {
		b.Fatal("warm iteration fell through to a build")
		return nil, nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New(1)
		eng.SetCacheDir(dir)
		for _, v := range bog.Variants() {
			if _, err := eng.EvalRep(engine.Key{Design: tag, Variant: v}, lib, noBuild); err != nil {
				b.Fatal(err)
			}
		}
		if st := eng.Stats(); st.DiskHits != int64(len(bog.Variants())) {
			b.Fatalf("warm iteration had %d disk hits, want %d", st.DiskHits, len(bog.Variants()))
		}
	}
}

// memStore is an engine.Store over a map, so BenchmarkDecodeEntry reads
// its entries without file I/O.
type memStore struct {
	mu      sync.Mutex
	entries map[string][]byte
}

func (s *memStore) Get(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.entries[name]
	if !ok {
		return nil, fs.ErrNotExist
	}
	return data, nil
}

func (s *memStore) Put(name string, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[name] = append([]byte(nil), payload...)
	return nil
}

func (s *memStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Sorted(maps.Keys(s.entries)), nil
}

func (s *memStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[name]; !ok {
		return fs.ErrNotExist
	}
	delete(s.entries, name)
	return nil
}

// BenchmarkDecodeEntry is the decode stage of a warm load on its own: per
// iteration, a fresh engine restores the four variants of the largest
// benchmark design from a map-backed store filled before the timer
// starts — checksum, graph codec, arrival decode and the lazy analyzer
// and extractor (neither builds anything until first use), with no file
// I/O. BenchmarkEngineWarmLoad adds the store reads.
func BenchmarkDecodeEntry(b *testing.B) {
	spec, ok := designs.ByName("Rocket3")
	if !ok {
		b.Fatal("no Rocket3")
	}
	src := designs.Generate(spec)
	lib := liberty.DefaultPseudoLib()
	tag := engine.DesignTag(spec.Name, src)
	store := &memStore{entries: map[string][]byte{}}
	warmup := engine.New(1)
	warmup.SetCacheStore(store)
	for _, v := range bog.Variants() {
		if _, err := warmup.EvalRep(engine.Key{Design: tag, Variant: v}, lib, engine.LazyDesign(src)); err != nil {
			b.Fatal(err)
		}
	}
	if st := warmup.Stats(); st.DiskWrites != int64(len(bog.Variants())) {
		b.Fatalf("warmup wrote %d entries, want %d", st.DiskWrites, len(bog.Variants()))
	}
	noBuild := func() (*elab.Design, error) {
		b.Fatal("decode iteration fell through to a build")
		return nil, nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New(1)
		eng.SetCacheStore(store)
		for _, v := range bog.Variants() {
			if _, err := eng.EvalRep(engine.Key{Design: tag, Variant: v}, lib, noBuild); err != nil {
				b.Fatal(err)
			}
		}
		if st := eng.Stats(); st.DiskHits != int64(len(bog.Variants())) {
			b.Fatalf("decode iteration had %d disk hits, want %d", st.DiskHits, len(bog.Variants()))
		}
	}
}

// glitchStore fails every other Get with EIO, which engine.TransientErr
// classifies as transient — the worst-case "every entry read glitches
// once" pattern. Under RetryStore every read then pays exactly one
// backoff slot before healing.
type glitchStore struct {
	engine.Store
	calls int
}

func (s *glitchStore) Get(name string) ([]byte, error) {
	s.calls++
	if s.calls%2 == 1 {
		return nil, syscall.EIO
	}
	return s.Store.Get(name)
}

// BenchmarkEngineWarmLoadWithRetry is BenchmarkEngineWarmLoad through the
// fault-tolerant path: every disk read glitches transiently once and heals
// through RetryStore's fixed backoff. The delta against the clean warm
// load is the total cost of the retry layer under a transient storm — the
// dominant term is the first backoff slot (1 ms) per entry read, not the
// layering itself.
func BenchmarkEngineWarmLoadWithRetry(b *testing.B) {
	spec, ok := designs.ByName("Rocket3")
	if !ok {
		b.Fatal("no Rocket3")
	}
	src := designs.Generate(spec)
	parsed, err := verilog.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	d, err := elab.Elaborate(parsed)
	if err != nil {
		b.Fatal(err)
	}
	lib := liberty.DefaultPseudoLib()
	tag := engine.DesignTag(spec.Name, src)
	dir := b.TempDir()
	warmup := engine.New(1)
	warmup.SetCacheDir(dir)
	for _, v := range bog.Variants() {
		if _, err := warmup.EvalRep(engine.Key{Design: tag, Variant: v}, lib, engine.FixedDesign(d)); err != nil {
			b.Fatal(err)
		}
	}
	noBuild := func() (*elab.Design, error) {
		b.Fatal("warm iteration fell through to a build")
		return nil, nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New(1)
		eng.SetCacheStore(engine.NewRetryStore(&glitchStore{Store: engine.NewDirStore(dir)}))
		for _, v := range bog.Variants() {
			if _, err := eng.EvalRep(engine.Key{Design: tag, Variant: v}, lib, noBuild); err != nil {
				b.Fatal(err)
			}
		}
		if st := eng.Stats(); st.DiskHits != int64(len(bog.Variants())) || st.DiskErrors != 0 {
			b.Fatalf("glitched warm iteration stats %+v, want clean hits through the retry layer", st)
		}
	}
}

// benchEngineBuild measures the full dataset build (bit blasting, pseudo-
// STA, sampling, feature extraction, synthesis ground truth) for a
// 6-design subset at a given worker count. A fresh engine per iteration
// keeps the representation cache cold so iterations do real work.
func benchEngineBuild(b *testing.B, jobs int) {
	specs := designs.All()[:6]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.BuildAll(specs, dataset.BuildOptions{Engine: engine.New(jobs)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineBuildJobs1(b *testing.B) { benchEngineBuild(b, 1) }

// BenchmarkEngineBuildJobsMax uses at least 2 workers so the concurrent
// path is exercised even on single-core machines (where wall-clock gains
// are impossible; compare against Jobs1 on multi-core hardware).
func BenchmarkEngineBuildJobsMax(b *testing.B) {
	jobs := runtime.GOMAXPROCS(0)
	if jobs < 2 {
		jobs = 2
	}
	benchEngineBuild(b, jobs)
}

// BenchmarkAblationSampling reproduces the path-sampling budget study
// (the design-choice ablation `experiments -run ablation-k` writes; see
// README.md).
func BenchmarkAblationSampling(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		t, err := s.AblationSampling()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(metric(b, t, "K<=12 (default)", 1), "bitR_defaultK")
		b.ReportMetric(metric(b, t, "slowest only (K=0)", 1), "bitR_K0")
	}
}

// benchEditSite picks the edit the incremental benchmarks toggle: the
// highest-id endpoint driver with two fanins (a realistic "small edit" —
// its downstream cone is a sliver of the design).
func benchEditSite(b *testing.B, g *bog.Graph) (n, orig, alt bog.NodeID) {
	b.Helper()
	n = -1
	for _, ep := range g.Endpoints {
		if g.Nodes[ep.D].NumFanin() >= 2 && ep.D > n {
			n = ep.D
		}
	}
	if n < 0 {
		b.Fatal("no two-input endpoint driver")
	}
	return n, g.Nodes[n].Fanin[0], g.Nodes[n].Fanin[1]
}

// BenchmarkFullReanalyze is the pre-incremental baseline: every edit pays
// a fresh Analyzer construction plus a full forward pass over the whole
// graph — exactly what an edit-driven exploration loop cost before
// sta.Incremental existed.
func BenchmarkFullReanalyze(b *testing.B) {
	g := largestSeedGraph(b).Clone()
	lib := liberty.DefaultPseudoLib()
	n, orig, alt := benchEditSite(b, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		to := alt
		if i%2 == 1 {
			to = orig
		}
		if _, err := g.Apply(bog.Delta{bog.SetFaninEdit(n, 0, to)}); err != nil {
			b.Fatal(err)
		}
		an := sta.NewAnalyzer(g, lib)
		if r := an.At(an.Arrivals(1), 0.5); r.WNS > 1e9 {
			b.Fatal("bogus WNS")
		}
	}
}

// BenchmarkIncrementalSTA is the same edit stream served by the
// incremental session: each Apply re-times only the affected downstream
// cone (tracked by the nodes_retimed/op metric), so per-edit cost is
// cone-proportional instead of design-proportional. CI tracks this pair;
// the target is >= 5x over BenchmarkFullReanalyze for single-node edits
// on the largest benchmark.
func BenchmarkIncrementalSTA(b *testing.B) {
	g := largestSeedGraph(b).Clone()
	lib := liberty.DefaultPseudoLib()
	inc := sta.NewIncremental(g, lib)
	n, orig, alt := benchEditSite(b, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		to := alt
		if i%2 == 1 {
			to = orig
		}
		if _, err := inc.Apply(bog.Delta{bog.SetFaninEdit(n, 0, to)}); err != nil {
			b.Fatal(err)
		}
		if r := inc.At(0.5); r.WNS > 1e9 {
			b.Fatal("bogus WNS")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(inc.Recomputed())/float64(b.N), "nodes_retimed/op")
}

// BenchmarkRepResultEdit measures the engine's delta derivation on a
// cache miss: a graph clone, a session opened on the base analyzer's
// shared consumer adjacency (copying the per-node vectors into the
// session's private analyzer, not rebuilding the adjacency), the cone
// re-time, a snapshot that returns that analyzer itself, the arrival
// fingerprint and a lazy extractor, which walks no cone and counts no
// cell. The first iteration builds the base's adjacency once, as a
// resident base's first edit does; every later one shares it.
func BenchmarkRepResultEdit(b *testing.B) {
	rr := rocket3AIG(b)
	n, _, alt := benchEditSite(b, rr.Graph)
	// Re-wrap the cached state in an engine-less RepResult: with no cache
	// slot to hit, every Edit pays the real derivation (clone, cone
	// re-timing, snapshot, lazy extractor) — which is what this
	// benchmark measures. Through an engine, repeats of one delta are
	// memory-tier hits instead.
	base := &engine.RepResult{Graph: rr.Graph, An: rr.An, Arrival: rr.Arrival, Ext: rr.Ext}
	delta := bog.Delta{bog.SetFaninEdit(n, 0, alt)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := base.Edit(delta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepResultEditChain times an 8-hop edit chain from a detached
// Rocket3 AIG base, each hop a perfbench-shaped edit (an endpoint
// driver's fanin 0 re-pointed at its fanin 1) derived from the previous
// hop's result. Every hop after the first opens its session on an
// analyzer that carries the chain's overlay, and clones it on its first
// write: the cost BenchmarkRepResultEdit, one hop from the base, never
// reaches. ns/op is the whole chain.
func BenchmarkRepResultEditChain(b *testing.B) {
	const hops = 8
	rr := rocket3AIG(b)
	g := rr.Graph
	var sites []bog.Delta
	seen := map[bog.NodeID]bool{}
	for _, ep := range g.Endpoints {
		n := &g.Nodes[ep.D]
		if seen[ep.D] || n.NumFanin() < 2 || n.Fanin[0] == n.Fanin[1] {
			continue
		}
		seen[ep.D] = true
		sites = append(sites, bog.Delta{bog.SetFaninEdit(ep.D, 0, n.Fanin[1])})
	}
	if len(sites) < hops {
		b.Fatalf("%d edit sites, want %d", len(sites), hops)
	}
	// Spread the hops over the design's endpoints.
	chain := make([]bog.Delta, hops)
	for h := range chain {
		chain[h] = sites[h*len(sites)/hops]
	}
	base := rr.Detached()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := base
		for _, d := range chain {
			var err error
			if cur, err = cur.Edit(d); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// rocket3AIG evaluates the Rocket3 AIG representation, the base of the
// edit-derivation benchmarks, through a fresh engine.
func rocket3AIG(b *testing.B) *engine.RepResult {
	b.Helper()
	spec, ok := designs.ByName("Rocket3")
	if !ok {
		b.Fatal("no Rocket3")
	}
	src := designs.Generate(spec)
	rr, err := engine.New(1).EvalRep(
		engine.Key{Design: engine.DesignTag(spec.Name, src), Variant: bog.AIG},
		liberty.DefaultPseudoLib(), engine.LazyDesign(src))
	if err != nil {
		b.Fatal(err)
	}
	return rr
}

// benchPost sends one POST and drains the response, failing the benchmark
// on anything but a 200.
func benchPost(b *testing.B, client *http.Client, url string, body []byte) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		b.Fatal(resp.Status)
	}
}

// benchDaemonWarm measures one fully warm rtltimerd round trip on path
// over real HTTP: the first request pays the builds outside the timer, and
// the timed requests must not build again.
func benchDaemonWarm(b *testing.B, path string, req any) {
	svc, err := service.New(service.Config{Jobs: runtime.GOMAXPROCS(0)})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	client := srv.Client()
	benchPost(b, client, srv.URL+path, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, client, srv.URL+path, body)
	}
	b.StopTimer()
	if builds := svc.Engine().Stats().Builds; builds != int64(len(bog.Variants())) {
		b.Fatalf("warm queries ran %d builds, want the initial %d only", builds, len(bog.Variants()))
	}
}

// BenchmarkDaemonWarmQuery measures one fully warm rtltimerd /eval round
// trip — JSON decode, four memory-tier hits, four WNS/TNS summaries, JSON
// encode — over real HTTP. This is the number the resident daemon exists
// for: the marginal cost of a timing query once the representations are
// resident (the one-shot CLI pays the builds, or at best the disk loads,
// every invocation).
func BenchmarkDaemonWarmQuery(b *testing.B) {
	benchDaemonWarm(b, "/eval", service.EvalRequest{
		Design: service.DesignRef{Bench: "syscdes"},
		Period: 0.55,
	})
}

// BenchmarkDaemonWarmSweep is the warm /sweep round trip: a 13-point
// WNS/TNS curve over the four variants, rendered as the CLI's text.
func BenchmarkDaemonWarmSweep(b *testing.B) {
	benchDaemonWarm(b, "/sweep", service.SweepRequest{
		Design: service.DesignRef{Bench: "syscdes"},
		Sweep:  "0.3:0.9:13",
	})
}

// BenchmarkDaemonWarmFmax is the warm /fmax round trip: one closed-form
// critical period (an endpoint pass plus one Summary check) per variant,
// rendered as the CLI's text.
func BenchmarkDaemonWarmFmax(b *testing.B) {
	benchDaemonWarm(b, "/fmax", service.FmaxRequest{
		Design: service.DesignRef{Bench: "syscdes"},
	})
}

// BenchmarkDaemonSheddingOverhead measures the same fully warm /eval
// round trip as BenchmarkDaemonWarmQuery, but with every survivability
// knob engaged: a one-slot admission gate (a serial client never sheds,
// so every request pays the full acquire/queue/release path), a queue
// grace timer, a per-request deadline (armed and canceled around each
// handler), and the session TTL janitor ticking in the background. The
// two benchmarks should be statistically indistinguishable — the
// admission and deadline machinery must cost channel-op noise, not a
// visible fraction of the query.
func BenchmarkDaemonSheddingOverhead(b *testing.B) {
	svc, err := service.New(service.Config{
		Jobs:           runtime.GOMAXPROCS(0),
		MaxInflight:    1,
		QueueWait:      100 * time.Millisecond,
		RequestTimeout: 30 * time.Second,
		SessionTTL:     time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	body, err := json.Marshal(service.EvalRequest{
		Design: service.DesignRef{Bench: "syscdes"},
		Period: 0.55,
	})
	if err != nil {
		b.Fatal(err)
	}
	client := srv.Client()
	benchPost(b, client, srv.URL+"/eval", body) // pay the builds outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, client, srv.URL+"/eval", body)
	}
	b.StopTimer()
	if shed := svc.Stats().Shed; shed != 0 {
		b.Fatalf("a serial client was shed %d times through a one-slot gate", shed)
	}
}

// BenchmarkDaemonEvictionChurn measures the /eval round trip when the
// memory budget is too small for the working set: every query evicts
// least-recently-touched entries and reloads its own from the disk tier.
// The guard at the end is the architectural point — under churn the build
// count must not move, because eviction degrades to deserialization, not
// recomputation.
func BenchmarkDaemonEvictionChurn(b *testing.B) {
	all := designs.All()
	names := []string{all[0].Name, all[1].Name, all[2].Name}
	svc, err := service.New(service.Config{Jobs: runtime.GOMAXPROCS(0), CacheDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := srv.Client()
	bodies := make([][]byte, len(names))
	for i, n := range names {
		bodies[i], err = json.Marshal(service.EvalRequest{
			Design: service.DesignRef{Bench: n},
			Period: 0.55,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchPost(b, client, srv.URL+"/eval", bodies[i]) // build + persist everything once
	}
	coldBuilds := svc.Engine().Stats().Builds
	// Budget for roughly one design's four variants: every rotation step
	// must evict the previous design and reload its own entries.
	svc.Engine().SetMemBudget(svc.Engine().MemUsed() / 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, client, srv.URL+"/eval", bodies[i%len(bodies)])
	}
	b.StopTimer()
	st := svc.Engine().Stats()
	b.ReportMetric(float64(st.Evictions)/float64(b.N), "evictions/op")
	if st.Builds != coldBuilds {
		b.Fatalf("churn ran %d extra builds; eviction must reload from disk, not rebuild", st.Builds-coldBuilds)
	}
}
