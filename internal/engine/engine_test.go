package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/elab"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
	"rtltimer/internal/verilog"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		e := New(jobs)
		const n = 1000
		hits := make([]int32, n)
		e.ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("jobs=%d: index %d ran %d times", jobs, i, h)
			}
		}
	}
}

func TestForEachSerialOrder(t *testing.T) {
	// jobs=1 must run inline, in submission order.
	e := New(1)
	var order []int
	e.ForEach(10, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("jobs=1 ran out of order: %v", order)
		}
	}
}

func TestForEachNestedNoDeadlock(t *testing.T) {
	// Nested fan-out from within pooled tasks must complete even when the
	// outer level saturates the pool.
	for _, jobs := range []int{1, 2, 4} {
		e := New(jobs)
		var count int64
		e.ForEach(8, func(i int) {
			e.ForEach(8, func(j int) {
				e.ForEach(4, func(k int) { atomic.AddInt64(&count, 1) })
			})
		})
		if count != 8*8*4 {
			t.Fatalf("jobs=%d: nested count %d", jobs, count)
		}
	}
}

func TestForEachErrFailFast(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	fail23 := func(i int) error {
		switch i {
		case 3:
			return errB
		case 2:
			return errA
		}
		return nil
	}
	// Serially, index 2 fails first and the remaining tasks are skipped.
	var ran []int
	err := New(1).ForEachErr(10, func(i int) error {
		ran = append(ran, i)
		return fail23(i)
	})
	if err != errA {
		t.Fatalf("jobs=1: got %v, want %v", err, errA)
	}
	if len(ran) != 3 {
		t.Fatalf("jobs=1: ran %v, want tasks 0..2 then fail-fast skip", ran)
	}
	// Concurrently, whichever failing task runs first wins; the error must
	// be one of the injected ones.
	if err := New(4).ForEachErr(10, fail23); err != errA && err != errB {
		t.Fatalf("jobs=4: got %v, want one of the injected errors", err)
	}
	if err := New(4).ForEachErr(5, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}

func buildDesign(t testing.TB) (*elab.Design, string) {
	t.Helper()
	spec := designs.All()[0]
	src := designs.Generate(spec)
	parsed, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(parsed)
	if err != nil {
		t.Fatal(err)
	}
	return d, src
}

func TestEvalRepSingleFlight(t *testing.T) {
	d, src := buildDesign(t)
	e := New(8)
	lib := liberty.DefaultPseudoLib()
	key := Key{Design: DesignTag(d.Name, src), Variant: bog.AIG}

	const callers = 16
	results := make([]*RepResult, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr, err := e.EvalRep(key, lib, FixedDesign(d))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = rr
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result instance", i)
		}
	}
	if got := e.Stats(); got.Builds != 1 {
		t.Fatalf("16 concurrent callers performed %d builds, want 1", got.Builds)
	}
	// A different variant is a different cache entry.
	other, err := e.EvalRep(Key{Design: key.Design, Variant: bog.SOG}, lib, FixedDesign(d))
	if err != nil {
		t.Fatal(err)
	}
	if other == results[0] {
		t.Fatal("different variant shared a cache entry")
	}
	e.Reset()
	fresh, err := e.EvalRep(key, lib, FixedDesign(d))
	if err != nil {
		t.Fatal(err)
	}
	if fresh == results[0] {
		t.Fatal("Reset did not drop the cache")
	}
}

// TestRepResultAtMatchesAnalyze pins the period-free cache contract: a
// K-period sweep through one cached RepResult costs exactly one build per
// (design, variant) and every At materialization is bit-identical to a
// from-scratch Analyze at that period.
func TestRepResultAtMatchesAnalyze(t *testing.T) {
	d, src := buildDesign(t)
	e := New(4)
	lib := liberty.DefaultPseudoLib()
	tag := DesignTag(d.Name, src)
	periods := []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

	for _, v := range bog.Variants() {
		rr, err := e.EvalRep(Key{Design: tag, Variant: v}, lib, FixedDesign(d))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range periods {
			got := rr.At(p)
			want := sta.Analyze(rr.Graph, lib, p)
			if got.WNS != want.WNS || got.TNS != want.TNS {
				t.Fatalf("%v period %.2f: At WNS/TNS %v/%v, Analyze %v/%v",
					v, p, got.WNS, got.TNS, want.WNS, want.TNS)
			}
			for i := range want.Slack {
				if got.Slack[i] != want.Slack[i] {
					t.Fatalf("%v period %.2f: slack[%d] differs", v, p, i)
				}
			}
			for i := range want.Arrival {
				if got.Arrival[i] != want.Arrival[i] {
					t.Fatalf("%v period %.2f: arrival[%d] differs", v, p, i)
				}
			}
		}
	}
	stats := e.Stats()
	if want := int64(len(bog.Variants())); stats.Builds != want {
		t.Fatalf("%d-period sweep over %d variants performed %d builds, want %d",
			len(periods), len(bog.Variants()), stats.Builds, want)
	}
}

func TestRetainDropsOtherDesigns(t *testing.T) {
	d, src := buildDesign(t)
	e := New(2)
	lib := liberty.DefaultPseudoLib()
	keepTag := DesignTag(d.Name, src)
	dropTag := DesignTag(d.Name, src+"\n// other")
	kept, err := e.EvalRep(Key{Design: keepTag, Variant: bog.AIG}, lib, FixedDesign(d))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EvalRep(Key{Design: dropTag, Variant: bog.AIG}, lib, FixedDesign(d)); err != nil {
		t.Fatal(err)
	}
	e.Retain(keepTag)
	again, err := e.EvalRep(Key{Design: keepTag, Variant: bog.AIG}, lib, FixedDesign(d))
	if err != nil {
		t.Fatal(err)
	}
	if again != kept {
		t.Fatal("Retain dropped a kept design")
	}
	before := e.Stats().Builds
	if _, err := e.EvalRep(Key{Design: dropTag, Variant: bog.AIG}, lib, FixedDesign(d)); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Builds != before+1 {
		t.Fatal("Retain kept a dropped design's entry")
	}
	// Drop releases one design and leaves the others alone.
	e.Drop(keepTag)
	before = e.Stats().Builds
	if _, err := e.EvalRep(Key{Design: keepTag, Variant: bog.AIG}, lib, FixedDesign(d)); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Builds != before+1 {
		t.Fatal("Drop kept the dropped design's entry")
	}
	hitsBefore := e.Stats().Hits
	if _, err := e.EvalRep(Key{Design: dropTag, Variant: bog.AIG}, lib, FixedDesign(d)); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Hits != hitsBefore+1 {
		t.Fatal("Drop released an unrelated design's entry")
	}
}

func TestDesignTagDistinguishesSources(t *testing.T) {
	if DesignTag("a", "module x") == DesignTag("a", "module y") {
		t.Fatal("same tag for different sources")
	}
	if DesignTag("a", "s") == DesignTag("b", "s") {
		t.Fatal("same tag for different names")
	}
	if DesignTag("a", "s") != DesignTag("a", "s") {
		t.Fatal("tag not deterministic")
	}
}

// evalAll evaluates every variant of the design on e and returns the
// results by variant.
func evalAll(t *testing.T, e *Engine, src DesignSource, tag string) map[bog.Variant]*RepResult {
	t.Helper()
	lib := liberty.DefaultPseudoLib()
	variants := bog.Variants()
	out := make([]*RepResult, len(variants))
	err := e.ForEachErr(len(variants), func(vi int) error {
		rr, rerr := e.EvalRep(Key{Design: tag, Variant: variants[vi]}, lib, src)
		out[vi] = rr
		return rerr
	})
	if err != nil {
		t.Fatal(err)
	}
	m := map[bog.Variant]*RepResult{}
	for vi, v := range variants {
		m[v] = out[vi]
	}
	return m
}

// SetShards, RepResult.Sharded and Stats.ShardEdits remain only because
// perfbench still calls them, so at any setting an engine must behave
// exactly like a default one. The four tests below pin that down for cold
// builds, disk loads, caches shared across settings and edit chains.

// inertChain returns rr followed by hops derived edits: a fanin re-point,
// an operator swap and an insert, in turn. The edits are drawn from a
// per-variant seed, so equal bases get equal chains.
func inertChain(t *testing.T, rr *RepResult, hops int) []*RepResult {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(rr.Graph.Variant)))
	chain := []*RepResult{rr}
	for hop := 0; hop < hops; hop++ {
		cur := chain[len(chain)-1]
		next, err := cur.Edit(bog.Delta{chainEdit(cur.Graph, rng, nil, hop%3)})
		if err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		chain = append(chain, next)
	}
	return chain
}

// TestShardedBuildBitIdentical: at 0, 1 and 4 shards and at jobs 1 and 8,
// every variant's cold build is bit-identical to a default engine's, and
// no result reports Sharded.
func TestShardedBuildBitIdentical(t *testing.T) {
	d, src := buildDesign(t)
	tag := DesignTag(d.Name, src)
	def := evalAll(t, New(1), FixedDesign(d), tag)
	for _, shards := range []int{0, 1, 4} {
		for _, jobs := range []int{1, 8} {
			e := New(jobs)
			e.SetShards(shards)
			got := evalAll(t, e, FixedDesign(d), tag)
			for _, v := range bog.Variants() {
				requireIdentical(t, def[v], got[v])
				if got[v].Sharded() {
					t.Fatalf("shards=%d jobs=%d %v: build reports Sharded", shards, jobs, v)
				}
			}
		}
	}
}

// TestBuildsNeverPartition: at 0, 1 and 4 shards, a cold build and then a
// disk load of the entries it wrote are bit-identical to a default
// engine's build, the load does zero builds, and no result reports
// Sharded.
func TestBuildsNeverPartition(t *testing.T) {
	d, src := buildDesign(t)
	tag := DesignTag(d.Name, src)
	n := int64(len(bog.Variants()))
	def := evalAll(t, New(2), FixedDesign(d), tag)
	for _, shards := range []int{0, 1, 4} {
		dir := t.TempDir()
		for _, warm := range []bool{false, true} {
			e := New(2).withDir(dir)
			e.SetShards(shards)
			source := FixedDesign(d)
			if warm {
				source = failingSource(t)
			}
			got := evalAll(t, e, source, tag)
			if st := e.Stats(); (!warm && st.Builds != n) || (warm && (st.Builds != 0 || st.DiskHits != n)) {
				t.Fatalf("shards=%d warm=%v: stats %+v, want %d builds or disk hits", shards, warm, st, n)
			}
			for _, v := range bog.Variants() {
				requireIdentical(t, def[v], got[v])
				if got[v].Sharded() {
					t.Fatalf("shards=%d warm=%v %v: result reports Sharded", shards, warm, v)
				}
			}
		}
	}
}

// TestShardedWarmRunZeroBuilds: the shard setting is not part of a disk
// entry, so a cache written at one setting serves an engine at another
// with zero builds and bit-identical results.
func TestShardedWarmRunZeroBuilds(t *testing.T) {
	d, src := buildDesign(t)
	tag := DesignTag(d.Name, src)
	for name, c := range map[string]struct{ cold, warm int }{
		"sharded-cache":    {cold: 4, warm: 0},
		"monolithic-cache": {cold: 1, warm: 4},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cold := New(2).withDir(dir)
			cold.SetShards(c.cold)
			coldRes := evalAll(t, cold, FixedDesign(d), tag)

			warm := New(2).withDir(dir)
			warm.SetShards(c.warm)
			warmRes := evalAll(t, warm, failingSource(t), tag)
			st := warm.Stats()
			if st.Builds != 0 || st.DiskHits != int64(len(bog.Variants())) {
				t.Fatalf("warm run stats %+v, want 0 builds and %d disk hits", st, len(bog.Variants()))
			}
			for _, v := range bog.Variants() {
				requireIdentical(t, coldRes[v], warmRes[v])
			}
		})
	}
}

// TestDefaultPolicyEditsMonolithic: at 0, 1 and 4 shards, every hop of a
// six-hop edit chain is bit-identical to the same hop on a default engine,
// its arrivals match a fresh analysis of the edited graph, no hop reports
// Sharded, and every derivation counts as an edit and none as a ShardEdit.
func TestDefaultPolicyEditsMonolithic(t *testing.T) {
	const hops = 6
	d, src := buildDesign(t)
	tag := DesignTag(d.Name, src)
	lib := liberty.DefaultPseudoLib()
	variants := bog.Variants()
	want := map[bog.Variant][]*RepResult{}
	for v, rr := range evalAll(t, New(2), FixedDesign(d), tag) {
		want[v] = inertChain(t, rr, hops)
	}
	for _, shards := range []int{0, 1, 4} {
		e := New(2)
		e.SetShards(shards)
		got := evalAll(t, e, FixedDesign(d), tag)
		for _, v := range variants {
			for i, rr := range inertChain(t, got[v], hops) {
				requireIdentical(t, want[v][i], rr)
				if rr.Sharded() {
					t.Fatalf("shards=%d %v hop %d: result reports Sharded", shards, v, i)
				}
				sameVec(t, fmt.Sprintf("shards=%d %v hop %d arrival", shards, v, i), sta.Analyze(rr.Graph, lib, 0).Arrival, rr.Arrival)
			}
		}
		if st := e.Stats(); st.Edits != hops*int64(len(variants)) || st.ShardEdits != 0 {
			t.Fatalf("shards=%d: stats %+v, want %d edits and no shard edit", shards, st, hops*len(variants))
		}
	}
}

// TestDropKeepsDiskEntryWarm (Retain/Drop x disk tier): dropping a design
// from the memory tier must not delete its on-disk entry, and the next
// evaluation after Drop or Retain must warm-load instead of rebuilding.
func TestDropKeepsDiskEntryWarm(t *testing.T) {
	d, src := buildDesign(t)
	tag := DesignTag(d.Name, src)
	dir := t.TempDir()
	e := New(2).withDir(dir)
	lib := liberty.DefaultPseudoLib()
	key := Key{Design: tag, Variant: bog.AIG}

	cold, err := e.EvalRep(key, lib, FixedDesign(d))
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Builds != 1 || st.DiskWrites != 1 {
		t.Fatalf("cold stats %+v, want one build persisted", st)
	}

	e.Drop(tag)
	if ents, err := os.ReadDir(dir); err != nil || len(ents) == 0 {
		t.Fatalf("Drop removed the on-disk entry (dir: %v, err: %v)", ents, err)
	}
	after, err := e.EvalRep(key, lib, failingSource(t))
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Builds != 1 || st.DiskHits != 1 {
		t.Fatalf("post-Drop stats %+v, want a warm load and no new build", st)
	}
	requireIdentical(t, cold, after)

	e.Retain() // keep nothing
	again, err := e.EvalRep(key, lib, failingSource(t))
	if err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Builds != 1 || st.DiskHits != 2 {
		t.Fatalf("post-Retain stats %+v, want a second warm load and no new build", st)
	}
	requireIdentical(t, cold, again)
}
