package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/elab"
	"rtltimer/internal/engine"
	"rtltimer/internal/features"
	"rtltimer/internal/liberty"
	"rtltimer/internal/part"
	"rtltimer/internal/service"
	"rtltimer/internal/sta"
	"rtltimer/internal/verilog"
)

// cliOp is one one-shot CLI run: a suite design evaluated at one period.
type cliOp struct {
	design int
	period int // index into evalPeriods
}

// Nominal op rates on a 2-vCPU host, used only to size a run's op
// sequence from --seconds; the sequence is then fixed by the seed.
const (
	coldOpsPerSec = 25
	diskOpsPerSec = 160
)

// cliWorkload is cold-build (disk false) or disk-warm (disk true): one
// caller runs the one-shot CLI path, a fresh service per op.
type cliWorkload struct {
	disk  bool
	suite []design
	ops   []cliOp
	dir   string // disk-warm's populated cache directory

	svc       *service.Service // the last set-up's service
	reps      []map[bog.Variant]*engine.RepResult
	sharded   [][]bool                  // engine shard decision per design and variant
	decisions []string                  // the same, rendered for the run record
	refs      [][]*service.EvalResponse // reference answer per design and period
	traceDir  string                    // disk-warm: cache the traced set-up persists into
	entryOf   map[string]cliEntry       // disk-warm: store entry name -> design, variant
	curRead   [4]int                    // disk-warm traced op: open evalrep span per variant
}

type cliEntry struct{ design, variant int }

func (w *cliWorkload) name() string {
	if w.disk {
		return "disk-warm"
	}
	return "cold-build"
}

func (w *cliWorkload) prepare(seed int64, seconds int, work string, suite []design) {
	w.suite = suite
	w.dir = filepath.Join(work, "cache")
	w.traceDir = filepath.Join(work, "cache-traced")
	rate := float64(coldOpsPerSec)
	if w.disk {
		rate = diskOpsPerSec
	}
	rng := newRand(seed)
	order := stratified(rng, len(w.suite), rounds(seconds, rate, 1, 6))
	w.ops = make([]cliOp, len(order))
	for i, d := range order {
		w.ops[i] = cliOp{design: d, period: rng.Intn(len(evalPeriods))}
	}
}

func (w *cliWorkload) opCount() int { return len(w.ops) }

func (w *cliWorkload) shardDecisions() []string { return w.decisions }

// setup makes one pass over the suite with the CLI defaults. For
// disk-warm it builds the suite into a fresh cache directory, so the
// set-up time carries the encode and write cost of the entries every op
// then reads.
func (w *cliWorkload) setup(ctx context.Context) error {
	svc, err := service.New(w.config())
	if err != nil {
		return err
	}
	w.svc = svc
	w.reps, err = buildSuite(ctx, svc, w.suite)
	return err
}

// verify records the reference answers and the engine's shard decisions,
// and checks each design once against the retained reference analysis.
func (w *cliWorkload) verify(ctx context.Context) error {
	w.refs = make([][]*service.EvalResponse, len(w.suite))
	w.sharded = make([][]bool, len(w.suite))
	w.decisions = make([]string, len(w.suite))
	for d, ds := range w.suite {
		w.refs[d] = make([]*service.EvalResponse, len(evalPeriods))
		for p, period := range evalPeriods {
			resp, err := w.svc.Eval(ctx, service.EvalRequest{Design: service.DesignRef{Bench: ds.name}, Period: period})
			if err != nil {
				return err
			}
			w.refs[d][p] = resp
		}
		for _, v := range bog.Variants() {
			w.sharded[d] = append(w.sharded[d], w.reps[d][v].Sharded())
		}
		w.decisions[d] = ds.name + ":" + shardDecision(w.reps[d])
		if err := checkAgainstReference(w.refs[d][d%len(evalPeriods)], w.reps[d]); err != nil {
			return err
		}
	}
	// The ops bring their own services; drop the set-up's resident state
	// so the timed phase starts from the heap a new process would have.
	w.svc.Close()
	w.svc, w.reps = nil, nil
	return nil
}

func (w *cliWorkload) reset() error {
	if w.svc != nil {
		w.svc.Close()
	}
	w.svc, w.reps = nil, nil
	if err := os.RemoveAll(w.traceDir); err != nil {
		return err
	}
	return os.RemoveAll(w.dir)
}

// request returns op i's eval request. Cold-build ships the source inline
// with a per-op revision comment, so nothing an earlier op built can
// serve it; disk-warm names the design as a CLI re-run would.
func (w *cliWorkload) request(i int) service.EvalRequest {
	o := w.ops[i]
	d := w.suite[o.design]
	ref := service.DesignRef{Bench: d.name}
	if !w.disk {
		ref = service.DesignRef{Src: fmt.Sprintf("%s// revision %d\n", d.src, i+1), Name: d.name}
	}
	return service.EvalRequest{Design: ref, Period: evalPeriods[o.period]}
}

func (w *cliWorkload) config() service.Config {
	cfg := service.Config{Jobs: cliJobs()}
	if w.disk {
		cfg.CacheDir = w.dir
	}
	return cfg
}

// check validates one op's answer and its engine counters.
func (w *cliWorkload) check(i int, resp *service.EvalResponse, st engine.Stats) error {
	o := w.ops[i]
	if !sameEval(resp, w.refs[o.design][o.period]) {
		return fmt.Errorf("op %d (%s): answer differs from the set-up reference", i, w.suite[o.design].name)
	}
	nv := int64(len(bog.Variants()))
	if w.disk && (st.DiskHits != nv || st.Builds != 0) {
		return fmt.Errorf("op %d: %d disk hits and %d builds, want %d and 0", i, st.DiskHits, st.Builds, nv)
	}
	if !w.disk && st.Builds != nv {
		return fmt.Errorf("op %d: %d builds, want %d", i, st.Builds, nv)
	}
	return nil
}

func sameEval(a, b *service.EvalResponse) bool {
	if a == nil || b == nil || a.Design != b.Design || a.Period != b.Period || len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			return false
		}
	}
	return true
}

// measure runs the op sequence untraced. Every op starts from a collected
// heap, as a new process would; the collection and the live-heap sample
// taken after the op are outside its timed interval.
func (w *cliWorkload) measure(ctx context.Context) *phase {
	ph := &phase{attempted: len(w.ops)}
	for i := range w.ops {
		req := w.request(i)
		runtime.GC()
		u0 := readUsage()
		t0 := time.Now()
		svc, err := service.New(w.config())
		var resp *service.EvalResponse
		if err == nil {
			resp, err = svc.Eval(ctx, req)
		}
		lat := time.Since(t0)
		u1 := readUsage()
		ph.use = ph.use.add(u1.sub(u0))
		ph.wall += lat
		ph.lats = append(ph.lats, ms(lat))
		if err == nil {
			st := svc.Engine().Stats()
			ph.stats = addEngineStats(ph.stats, st, 1)
			err = w.check(i, resp, st)
		}
		if err != nil {
			ph.fail(err)
		}
		runtime.GC()
		ph.heap = append(ph.heap, float64(heapLive())/mb)
		if svc != nil {
			ph.memUsed = append(ph.memUsed, float64(svc.Engine().MemUsed())/mb)
			svc.Close()
		}
	}
	return ph
}

// traceSetup (disk-warm only) persists the suite once more through a
// traced store, timing each entry write and learning which entry holds
// which design and variant, so reads in traced ops find their parent.
func (w *cliWorkload) traceSetup(ctx context.Context, tr *tracer) error {
	if !w.disk {
		return nil
	}
	w.entryOf = map[string]cliEntry{}
	eng := engine.New(cliJobs())
	eng.SetShards(0)
	cur := cliEntry{}
	eng.SetCacheStore(&tracedStore{inner: engine.NewRetryStore(engine.NewDirStore(w.traceDir)), onPut: func(name string) func() {
		w.entryOf[name] = cur
		id := tr.begin(-1, -1, "engine.store_write")
		return func() { tr.end(id) }
	}})
	lib := liberty.DefaultPseudoLib()
	for d, ds := range w.suite {
		tag := engine.DesignTag(ds.name, ds.src)
		src := engine.LazyDesign(ds.src)
		for vi, v := range bog.Variants() {
			cur = cliEntry{design: d, variant: vi}
			if _, err := eng.EvalRep(engine.Key{Design: tag, Variant: v}, lib, src); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceOps replays the op sequence through the layer chain the op is made
// of, one span per exported call.
func (w *cliWorkload) traceOps(ctx context.Context, tr *tracer) error {
	pool := engine.New(cliJobs())
	for i := range w.ops {
		runtime.GC()
		var err error
		if w.disk {
			err = w.traceDiskOp(tr, i)
		} else {
			err = w.traceColdOp(tr, pool, i)
		}
		if err != nil {
			return fmt.Errorf("traced op %d: %w", i, err)
		}
	}
	return nil
}

// traceColdOp is a cold build as the engine performs it: the frontend
// once, then per variant (fanned out on a pool of the CLI's size)
// bit-blast, analyzer, partition when the auto policy asks for shards,
// forward pass and feature extraction; then the slack view and digest.
func (w *cliWorkload) traceColdOp(tr *tracer, pool *engine.Engine, i int) error {
	o := w.ops[i]
	req := w.request(i)
	period := req.Period
	lib := liberty.DefaultPseudoLib()
	root := tr.beginOp(i, w.suite[o.design].name)
	defer tr.end(root)
	tr.do(i, root, "service.resolve", func() { engine.DesignTag(req.Design.Name, req.Design.Src) })
	var parsed *verilog.Source
	var d *elab.Design
	var err error
	tr.do(i, root, "verilog.parse", func() { parsed, err = verilog.Parse(req.Design.Src) })
	if err != nil {
		return err
	}
	tr.do(i, root, "elab.elaborate", func() { d, err = elab.Elaborate(parsed) })
	if err != nil {
		return err
	}
	variants := bog.Variants()
	type built struct {
		an  *sta.Analyzer
		arr []float64
	}
	out := make([]built, len(variants))
	err = pool.ForEachErr(len(variants), func(vi int) error {
		var g *bog.Graph
		var berr error
		tr.do(i, root, "bog.build", func() { g, berr = bog.Build(d, variants[vi]) })
		if berr != nil {
			return berr
		}
		tr.count("bog.nodes", float64(len(g.Nodes)))
		var an *sta.Analyzer
		tr.do(i, root, "sta.analyzer", func() { an = sta.NewAnalyzer(g, lib) })
		var p *part.Partition
		if k := autoShards(g); k > 1 {
			tr.do(i, root, "part.partition", func() { p, berr = part.New(g, k) })
			if berr != nil {
				return berr
			}
		}
		if !w.sharded[o.design][vi] {
			p = nil
		}
		shards := 1
		if p != nil {
			shards = p.K
		}
		tr.count("part.shards", float64(shards))
		tr.count("part.reps", 1)
		var arr []float64
		tr.do(i, root, "sta.forward", func() {
			if p == nil {
				arr = an.Arrivals(1)
				return
			}
			var sa *sta.ShardedAnalyzer
			if sa, berr = sta.NewShardedAnalyzer(an, p); berr != nil {
				return
			}
			locals := make([][]float64, p.K)
			pool.ForEach(p.K, func(s int) { locals[s] = sa.ShardArrivals(s) })
			arr, berr = sa.Stitch(locals)
		})
		if berr != nil {
			return berr
		}
		var ext *features.Extractor
		tr.do(i, root, "features.extract", func() { ext = features.NewExtractor(g, an.At(arr, 0)) })
		tr.count("features.cone_nodes", coneNodes(ext))
		out[vi] = built{an: an, arr: arr}
		return nil
	})
	if err != nil {
		return err
	}
	results := make([]*sta.Result, len(variants))
	for vi := range variants {
		tr.do(i, root, "sta.at", func() { results[vi] = out[vi].an.At(out[vi].arr, period) })
		tr.count("sta.at_calls", 1)
	}
	var got service.EvalResponse
	tr.do(i, root, "service.eval_self", func() {
		got = service.EvalResponse{Design: req.Design.Name, Period: period}
		for vi, v := range variants {
			got.Results = append(got.Results, service.VariantResult{
				Variant: v.String(), WNS: results[vi].WNS, TNS: results[vi].TNS,
				Endpoints: len(results[vi].EndpointAT), ArrivalSHA256: arrivalDigest(out[vi].arr),
			})
		}
	})
	if !sameEval(&got, w.refs[o.design][o.period]) {
		return fmt.Errorf("traced chain answer for %s differs from the reference", w.suite[o.design].name)
	}
	return nil
}

// autoShards is the engine's automatic shard count for a graph built with
// the CLI's worker count: part.Auto by register bits, capped by the
// workers that can run shards at once.
func autoShards(g *bog.Graph) int {
	return min(part.Auto(g.SeqNodes()), cliJobs(), runtime.GOMAXPROCS(0))
}

func coneNodes(ext *features.Extractor) float64 {
	cones, _ := ext.State()
	n := 0
	for _, c := range cones {
		n += c.Nodes
	}
	return float64(n)
}

// traceDiskOp is a CLI re-run over the populated cache: resolve, the
// engine's per-variant disk hits (reads timed by a store wrapper), then
// the slack view and digest. The three restores a disk hit runs inside
// the engine are replayed after the op with the same inputs and charged
// to the evalrep span they belong to.
func (w *cliWorkload) traceDiskOp(tr *tracer, i int) error {
	o := w.ops[i]
	period := evalPeriods[o.period]
	lib := liberty.DefaultPseudoLib()
	eng := engine.New(cliJobs())
	eng.SetShards(0)
	eng.SetCacheStore(&tracedStore{inner: engine.NewRetryStore(engine.NewDirStore(w.dir)), onGet: func(name string) func(int) {
		e, ok := w.entryOf[name]
		if !ok || e.design != o.design {
			return func(int) {}
		}
		id := tr.begin(i, w.curRead[e.variant], "engine.store_read")
		return func(n int) {
			tr.end(id)
			tr.count("engine.store_read_mb", float64(n)/mb)
		}
	}})
	root := tr.beginOp(i, w.suite[o.design].name)
	var name, src, tag string
	tr.do(i, root, "service.resolve", func() {
		sp, _ := designs.ByName(w.suite[o.design].name)
		name, src = sp.Name, designs.Generate(sp)
		tag = engine.DesignTag(name, src)
	})
	variants := bog.Variants()
	reps := make([]*engine.RepResult, len(variants))
	err := eng.ForEachErr(len(variants), func(vi int) error {
		// The engine reads this variant's entry on a goroutine EvalRep
		// starts, after this write: the store wrapper finds its parent.
		w.curRead[vi] = tr.begin(i, root, "engine.evalrep")
		rr, err := eng.EvalRep(engine.Key{Design: tag, Variant: variants[vi]}, lib, engine.LazyDesign(src))
		tr.end(w.curRead[vi])
		reps[vi] = rr
		return err
	})
	if err != nil {
		tr.end(root)
		return err
	}
	got := service.EvalResponse{Design: name, Period: period}
	results := make([]*sta.Result, len(variants))
	for vi := range variants {
		tr.do(i, root, "sta.at", func() { results[vi] = reps[vi].At(period) })
		tr.count("sta.at_calls", 1)
	}
	tr.do(i, root, "service.eval_self", func() {
		for vi, v := range variants {
			got.Results = append(got.Results, service.VariantResult{
				Variant: v.String(), WNS: results[vi].WNS, TNS: results[vi].TNS,
				Endpoints: len(reps[vi].Graph.Endpoints), ArrivalSHA256: arrivalDigest(reps[vi].Arrival),
			})
		}
	})
	tr.end(root)
	if !sameEval(&got, w.refs[o.design][o.period]) {
		return fmt.Errorf("traced answer for %s differs from the reference", name)
	}
	if st := eng.Stats(); st.DiskHits != int64(len(variants)) || st.Builds != 0 {
		return fmt.Errorf("traced op: %d disk hits and %d builds", st.DiskHits, st.Builds)
	}
	for vi, rr := range reps {
		parent := w.curRead[vi]
		blob := bog.MarshalGraph(rr.Graph)
		var g *bog.Graph
		tr.do(i, parent, "bog.unmarshal", func() { g, err = bog.UnmarshalGraph(blob) })
		if err != nil {
			return err
		}
		load, slew, delay, fanout := rr.An.State()
		var an *sta.Analyzer
		tr.do(i, parent, "sta.restore", func() { an, err = sta.NewAnalyzerFromState(g, lib, load, slew, delay, fanout) })
		if err != nil {
			return err
		}
		cones, rank := rr.Ext.State()
		tr.do(i, parent, "features.restore", func() { _, err = features.NewExtractorFromState(g, an.At(rr.Arrival, 0), cones, rank) })
		if err != nil {
			return err
		}
	}
	return nil
}

// tracedStore times the disk tier's reads and writes through the
// engine's Store seam. onGet and onPut open a span and return its closer.
type tracedStore struct {
	inner engine.Store
	onGet func(name string) (done func(n int))
	onPut func(name string) (done func())
}

func (s *tracedStore) Get(name string) ([]byte, error) {
	if s.onGet == nil {
		return s.inner.Get(name)
	}
	done := s.onGet(name)
	data, err := s.inner.Get(name)
	done(len(data))
	return data, err
}

func (s *tracedStore) Put(name string, payload []byte) error {
	if s.onPut == nil {
		return s.inner.Put(name, payload)
	}
	done := s.onPut(name)
	defer done()
	return s.inner.Put(name, payload)
}

func (s *tracedStore) List() ([]string, error) { return s.inner.List() }

func (s *tracedStore) Delete(name string) error { return s.inner.Delete(name) }
