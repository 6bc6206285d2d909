package engine

import (
	"math"
	"math/rand"
	"os"
	"slices"
	"sync"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/elab"
	"rtltimer/internal/features"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
	"rtltimer/internal/verilog"
)

// editTestRep builds one cached base representation of the smallest seed
// design through an engine.
func editTestRep(t testing.TB, eng *Engine, v bog.Variant) (*RepResult, Key) {
	t.Helper()
	spec := designs.All()[0]
	src := designs.Generate(spec)
	key := Key{Design: DesignTag(spec.Name, src), Variant: v}
	rr, err := eng.EvalRep(key, liberty.DefaultPseudoLib(), LazyDesign(src))
	if err != nil {
		t.Fatal(err)
	}
	return rr, key
}

// smallEdit returns a valid single-edit delta for g: re-point the highest
// endpoint driver's first fanin at constant zero.
func smallEdit(t testing.TB, g *bog.Graph) bog.Delta {
	t.Helper()
	var n bog.NodeID = bog.Nil
	for _, ep := range g.Endpoints {
		if ep.D > n && g.Nodes[ep.D].NumFanin() > 0 {
			n = ep.D
		}
	}
	if n == bog.Nil {
		t.Fatal("no editable endpoint driver")
	}
	return bog.Delta{bog.SetFaninEdit(n, 0, 0)}
}

func sameVec(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d != %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %v != %v", what, i, a[i], b[i])
		}
	}
}

// TestEditMatchesFullRebuild: a delta-derived RepResult must be
// bit-identical — arrivals, analyzer state, extractor cone state, slacks —
// to rebuilding everything from scratch on an edited clone of the graph.
func TestEditMatchesFullRebuild(t *testing.T) {
	lib := liberty.DefaultPseudoLib()
	for _, v := range bog.Variants() {
		eng := New(2)
		rr, _ := editTestRep(t, eng, v)
		delta := smallEdit(t, rr.Graph)
		drr, err := rr.Edit(delta)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}

		// Full rebuild oracle.
		g := rr.Graph.Clone()
		if _, err := g.Apply(delta); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		an := sta.NewAnalyzer(g, lib)
		arr := an.Arrivals(1)
		sameVec(t, "Arrival", arr, drr.Arrival)
		ol, os_, od, of := an.State()
		dl, ds, dd, df := drr.An.State()
		sameVec(t, "Load", ol, dl)
		sameVec(t, "Slew", os_, ds)
		sameVec(t, "Delay", od, dd)
		for i := range of {
			if of[i] != df[i] {
				t.Fatalf("%v: Fanout[%d] %d != %d", v, i, df[i], of[i])
			}
		}
		oracle := features.NewExtractor(g, an.At(arr, 0))
		oc, orp := oracle.State()
		ec, erp := drr.Ext.State()
		if len(oc) != len(ec) {
			t.Fatalf("%v: cone count %d != %d", v, len(ec), len(oc))
		}
		for i := range oc {
			if oc[i] != ec[i] {
				t.Fatalf("%v: cone %d %+v != %+v", v, i, ec[i], oc[i])
			}
		}
		sameVec(t, "RankPct", orp, erp)
		r1, r2 := an.At(arr, 0.5), drr.At(0.5)
		sameVec(t, "Slack", r1.Slack, r2.Slack)
		if math.Float64bits(r1.WNS) != math.Float64bits(r2.WNS) || math.Float64bits(r1.TNS) != math.Float64bits(r2.TNS) {
			t.Fatalf("%v: WNS/TNS mismatch", v)
		}
	}
}

// chainEdit draws one random edit valid after the edits already in d:
// kind 0 re-points a fanin of an existing operator node, 1 swaps an
// existing node's operator (kind 0 where the variant has no swap), 2
// inserts a node, and 3 re-points a fanin of a node inserted earlier in d
// (kind 0 when d inserted none).
func chainEdit(g *bog.Graph, rng *rand.Rand, d bog.Delta, kind int) bog.Edit {
	arity := func(op bog.Op) int { return (&bog.Node{Op: op}).NumFanin() }
	var alphabet []bog.Op
	for _, op := range []bog.Op{bog.Not, bog.And, bog.Or, bog.Xor, bog.Mux} {
		if g.CheckDelta(bog.Delta{bog.InsertEdit(op, make([]bog.NodeID, arity(op))...)}) == nil {
			alphabet = append(alphabet, op)
		}
	}
	// The operator of every node once d has applied, and d's inserts.
	ops := map[bog.NodeID]bog.Op{}
	var inserted []bog.NodeID
	nn := bog.NodeID(len(g.Nodes))
	for _, e := range d {
		switch e.Kind {
		case bog.EditSetOp:
			ops[e.Node] = e.Op
		case bog.EditInsert:
			ops[nn] = e.Op
			inserted = append(inserted, nn)
			nn++
		}
	}
	opOf := func(n bog.NodeID) bog.Op {
		if op, ok := ops[n]; ok {
			return op
		}
		return g.Nodes[n].Op
	}
	existing := func() bog.NodeID {
		for {
			n := bog.NodeID(1 + rng.Intn(len(g.Nodes)-1))
			switch g.Nodes[n].Op {
			case bog.Not, bog.And, bog.Or, bog.Xor, bog.Mux:
				return n
			}
		}
	}
	repoint := func(n bog.NodeID) bog.Edit {
		return bog.SetFaninEdit(n, rng.Intn(arity(opOf(n))), bog.NodeID(rng.Intn(int(n))))
	}
	switch {
	case kind == 3 && len(inserted) > 0:
		return repoint(inserted[rng.Intn(len(inserted))])
	case kind == 1:
		// AIG has no two operators of equal arity: no swap exists there.
		for try := 0; try < 64; try++ {
			n := existing()
			var alts []bog.Op
			for _, op := range alphabet {
				if op != opOf(n) && arity(op) == arity(opOf(n)) {
					alts = append(alts, op)
				}
			}
			if len(alts) > 0 {
				return bog.SetOpEdit(n, alts[rng.Intn(len(alts))])
			}
		}
		return repoint(existing())
	case kind == 2:
		op := alphabet[rng.Intn(len(alphabet))]
		fanin := make([]bog.NodeID, arity(op))
		for j := range fanin {
			fanin[j] = bog.NodeID(rng.Intn(int(nn)))
		}
		return bog.InsertEdit(op, fanin...)
	default:
		return repoint(existing())
	}
}

// TestEditChainsMatchFreshExtractor is the randomized oracle for edit
// derivation: on every suite design and variant, a seeded chain of hops
// alternating single edits of each kind with multi-edit deltas
// (re-points of existing and same-delta inserted nodes, operator swaps,
// inserts) must leave arrivals, analyzer state, cones and rank
// percentiles bit-identical, hop after hop, to a fresh Analyzer and
// Extractor of the edited clone.
func TestEditChainsMatchFreshExtractor(t *testing.T) {
	const hops = 6
	lib := liberty.DefaultPseudoLib()
	for di, spec := range designs.All() {
		src := designs.Generate(spec)
		eng := New(1)
		for _, v := range bog.Variants() {
			t.Run(spec.Name+"/"+v.String(), func(t *testing.T) {
				rr, err := eng.EvalRep(Key{Design: DesignTag(spec.Name, src), Variant: v}, lib, LazyDesign(src))
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(di)*7919 + int64(v)))
				cur := rr.Detached()
				g := rr.Graph.Clone()
				for hop := 0; hop < hops; hop++ {
					var d bog.Delta
					if hop%2 == 0 {
						d = bog.Delta{chainEdit(g, rng, nil, hop/2%3)}
					} else {
						// Two re-points of existing nodes, an insert and a
						// re-point of it, then a random mix.
						kinds := []int{0, 2, 3, 0}
						for k := rng.Intn(4); k > 0; k-- {
							kinds = append(kinds, rng.Intn(4))
						}
						for _, k := range kinds {
							d = append(d, chainEdit(g, rng, d, k))
						}
					}
					t.Logf("hop %d: delta %v", hop, d)
					if cur, err = cur.Edit(d); err != nil {
						t.Fatal(err)
					}
					if _, err := g.Apply(d); err != nil {
						t.Fatal(err)
					}
					an := sta.NewAnalyzer(g, lib)
					arr := an.Arrivals(1)
					requireIdentical(t, &RepResult{Graph: g, An: an, Arrival: arr, Ext: features.NewExtractor(g, an.At(arr, 0))}, cur)
				}
			})
		}
	}
}

// TestMalformedDeltaRejected: invalid deltas — ids or slots out of range,
// negative fanins — fail with CheckDelta's clean error, never a panic.
func TestMalformedDeltaRejected(t *testing.T) {
	d, src := buildDesign(t)
	rr, err := New(2).EvalRep(Key{Design: DesignTag(d.Name, src), Variant: bog.AIG}, liberty.DefaultPseudoLib(), FixedDesign(d))
	if err != nil {
		t.Fatal(err)
	}
	bad := []bog.Delta{
		{{Kind: bog.EditSetFanin, Node: -1, Slot: 0, To: 5}},
		{{Kind: bog.EditSetFanin, Node: 5, Slot: -1, To: 2}},
		{{Kind: bog.EditSetFanin, Node: bog.NodeID(len(rr.Graph.Nodes) + 7), Slot: 0, To: 2}},
		{{Kind: bog.EditSetOp, Node: -3, Op: bog.And}},
		{{Kind: bog.EditInsert, Op: bog.And, Fanin: [3]bog.NodeID{-2, 0, bog.Nil}}},
	}
	for i, delta := range bad {
		if _, err := rr.Edit(delta); err == nil {
			t.Errorf("malformed delta %d accepted", i)
		}
	}
}

// TestEditIsCachedAndImmutable: repeated Edits with one delta share one
// derived entry (single computation, hits afterwards, never a Build), the
// base result is never mutated, and chained edits agree with the combined
// delta applied in one step.
func TestEditIsCachedAndImmutable(t *testing.T) {
	eng := New(2)
	rr, _ := editTestRep(t, eng, bog.AIG)
	baseBuilds := eng.Stats().Builds
	baseArr := append([]float64(nil), rr.Arrival...)
	baseNodes := rr.Graph.NumNodes()

	delta := smallEdit(t, rr.Graph)
	d1, err := rr.Edit(delta)
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore := eng.Stats().Hits
	d2, err := rr.Edit(delta)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("repeated Edit did not return the cached derived result")
	}
	st := eng.Stats()
	if st.Edits != 1 {
		t.Fatalf("Edits = %d, want 1", st.Edits)
	}
	if st.Hits != hitsBefore+1 {
		t.Fatalf("Hits = %d, want %d", st.Hits, hitsBefore+1)
	}
	if st.Builds != baseBuilds {
		t.Fatalf("Edit performed a full build (%d -> %d)", baseBuilds, st.Builds)
	}
	sameVec(t, "base Arrival", baseArr, rr.Arrival)
	if rr.Graph.NumNodes() != baseNodes {
		t.Fatal("Edit mutated the base graph")
	}
	if len(delta) != 1 {
		t.Fatalf("smallEdit produced %d edits", len(delta))
	}

	// Chaining: Edit(d1) then Edit(d2) equals Edit(d1+d2) bit-for-bit
	// (different keys, same state).
	g := rr.Graph
	var m bog.NodeID = bog.Nil
	for i := range g.Nodes {
		if g.Nodes[i].NumFanin() > 1 {
			m = bog.NodeID(i)
		}
	}
	if m == bog.Nil {
		t.Skip("no two-input node")
	}
	second := bog.Delta{bog.SetFaninEdit(m, 1, 1)}
	chained, err := d1.Edit(second)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := rr.Edit(append(append(bog.Delta{}, delta...), second...))
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "chained Arrival", combined.Arrival, chained.Arrival)
	if eng.Stats().Edits != 3 {
		t.Fatalf("Edits = %d, want 3 (one per distinct edit history)", eng.Stats().Edits)
	}

	// An empty delta is the identity and costs nothing.
	same, err := rr.Edit(nil)
	if err != nil || same != rr {
		t.Fatalf("empty delta returned (%v, %v), want the base itself", same, err)
	}

	// An invalid delta surfaces its error and caches nothing usable.
	if _, err := rr.Edit(bog.Delta{bog.SetFaninEdit(0, 0, 0)}); err == nil {
		t.Fatal("invalid delta accepted")
	}
}

// TestEditRetainDropFollowBase: derived entries belong to their base
// design for cache-lifecycle purposes.
func TestEditRetainDropFollowBase(t *testing.T) {
	eng := New(1)
	rr, key := editTestRep(t, eng, bog.SOG)
	if _, err := rr.Edit(smallEdit(t, rr.Graph)); err != nil {
		t.Fatal(err)
	}

	// Retaining the base keeps the derived entry: re-Edit is a Hit, not a
	// fresh derivation.
	eng.Retain(key.Design)
	before := eng.Stats()
	if _, err := rr.Edit(smallEdit(t, rr.Graph)); err != nil {
		t.Fatal(err)
	}
	after := eng.Stats()
	if after.Edits != before.Edits {
		t.Fatalf("Retain(base) evicted the derived entry (Edits %d -> %d)", before.Edits, after.Edits)
	}
	if after.Evictions != before.Evictions {
		t.Fatalf("Retain(base) evicted %d entries, want 0", after.Evictions-before.Evictions)
	}

	// Retaining nothing drops the base and its derived entries too.
	eng.Retain()
	if got := eng.Stats().Evictions; got != before.Evictions+2 {
		t.Fatalf("Retain() evicted %d entries total, want %d (base + derived)", got, before.Evictions+2)
	}
}

// TestEditWarmSessionRebases: derived entries are never written to disk;
// a second session pointed at the same cache directory warm-loads the
// base (zero builds) and re-derives the delta, ending bit-identical to
// the first session's derived result.
func TestEditWarmSessionRebases(t *testing.T) {
	dir := t.TempDir()
	spec := designs.All()[0]
	src := designs.Generate(spec)
	lib := liberty.DefaultPseudoLib()
	key := Key{Design: DesignTag(spec.Name, src), Variant: bog.XAG}

	cold := New(1)
	cold.SetCacheDir(dir)
	rr, err := cold.EvalRep(key, lib, LazyDesign(src))
	if err != nil {
		t.Fatal(err)
	}
	delta := smallEdit(t, rr.Graph)
	d1, err := rr.Edit(delta)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("cache holds %d files, want 1 (derived entries must not persist)", len(entries))
	}

	warm := New(1)
	warm.SetCacheDir(dir)
	noBuild := func() (*elab.Design, error) {
		t.Fatal("warm session fell through to a build")
		return nil, nil
	}
	wrr, err := warm.EvalRep(key, lib, DesignSource(noBuild))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := wrr.Edit(delta)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Builds != 0 || st.DiskHits != 1 || st.Edits != 1 {
		t.Fatalf("warm stats %+v, want 0 builds, 1 disk hit, 1 rebase", st)
	}
	sameVec(t, "rebased Arrival", d1.Arrival, wd.Arrival)
	r1, r2 := d1.At(0.6), wd.At(0.6)
	sameVec(t, "rebased Slack", r1.Slack, r2.Slack)
}

// TestConcurrentDerivesShareAdjacency: eight goroutines derive eight
// different deltas from one disk-restored base at once, so the base
// analyzer's lazy adjacency build races its first readers. Every derived
// result must be bit-identical to sta.Analyze of its edited graph, and
// every derived analyzer must read untouched consumer lists from the
// base's one root CSR instead of a copy (run under -race in CI).
func TestConcurrentDerivesShareAdjacency(t *testing.T) {
	const derives = 8
	dir := t.TempDir()
	spec := designs.All()[0]
	src := designs.Generate(spec)
	lib := liberty.DefaultPseudoLib()
	key := Key{Design: DesignTag(spec.Name, src), Variant: bog.AIG}
	eng := New(derives)
	eng.SetCacheDir(dir)
	if _, err := eng.EvalRep(key, lib, LazyDesign(src)); err != nil {
		t.Fatal(err)
	}
	eng.Reset()
	rr, err := eng.EvalRep(key, lib, LazyDesign(src))
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats %+v: base was not restored from disk", st)
	}

	// One re-point per delta, on the highest-id endpoint drivers; touched
	// collects every node whose consumer list a delta changes.
	g := rr.Graph
	touched := map[bog.NodeID]bool{}
	var deltas []bog.Delta
	for i := len(g.Endpoints) - 1; i >= 0 && len(deltas) < derives; i-- {
		n := g.Endpoints[i].D
		if g.Nodes[n].NumFanin() == 0 || touched[n] {
			continue
		}
		to := bog.NodeID(len(deltas))
		touched[n], touched[g.Nodes[n].Fanin[0]], touched[to] = true, true, true
		deltas = append(deltas, bog.Delta{bog.SetFaninEdit(n, 0, to)})
	}
	if len(deltas) < derives {
		t.Fatalf("found %d editable endpoint drivers, want %d", len(deltas), derives)
	}

	results := make([]*RepResult, derives)
	errs := make([]error, derives)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range deltas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = rr.Edit(deltas[i])
		}(i)
	}
	close(start)
	wg.Wait()

	shared := bog.Nil
	for n := range g.Nodes {
		if !touched[bog.NodeID(n)] && len(rr.An.Consumers(bog.NodeID(n))) > 0 {
			shared = bog.NodeID(n)
			break
		}
	}
	if shared == bog.Nil {
		t.Fatal("no untouched node with consumers")
	}
	root := &rr.An.Consumers(shared)[0]
	for i, d := range deltas {
		if errs[i] != nil {
			t.Fatalf("derive %d: %v", i, errs[i])
		}
		eg := g.Clone()
		if _, err := eg.Apply(d); err != nil {
			t.Fatal(err)
		}
		for _, p := range []float64{0.4, 0.9} {
			want, got := sta.Analyze(eg, lib, p), results[i].At(p)
			sameVec(t, "Arrival", want.Arrival, got.Arrival)
			sameVec(t, "Load", want.Load, got.Load)
			sameVec(t, "Slew", want.Slew, got.Slew)
			sameVec(t, "Slack", want.Slack, got.Slack)
			if math.Float64bits(want.WNS) != math.Float64bits(got.WNS) || math.Float64bits(want.TNS) != math.Float64bits(got.TNS) {
				t.Fatalf("derive %d at %v: WNS/TNS %v/%v, want %v/%v", i, p, got.WNS, got.TNS, want.WNS, want.TNS)
			}
			if !slices.Equal(want.Fanout, got.Fanout) {
				t.Fatalf("derive %d: fanout differs from a fresh analysis", i)
			}
		}
		if results[i].ArrivalSHA256 != ArrivalDigest(sta.Analyze(eg, lib, 1).Arrival) {
			t.Fatalf("derive %d: arrival fingerprint differs from a fresh analysis", i)
		}
		if &results[i].An.Consumers(shared)[0] != root {
			t.Fatalf("derive %d reads node %d's consumers from a copy of the base's root CSR", i, shared)
		}
	}
}

// TestEditWithoutEngine: a RepResult assembled outside any engine still
// supports Edit (uncached derivation).
func TestEditWithoutEngine(t *testing.T) {
	spec := designs.All()[0]
	parsed, err := verilog.Parse(designs.Generate(spec))
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(parsed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := bog.Build(d, bog.AIMG)
	if err != nil {
		t.Fatal(err)
	}
	lib := liberty.DefaultPseudoLib()
	an := sta.NewAnalyzer(g, lib)
	arr := an.Arrivals(1)
	rr := &RepResult{Graph: g, An: an, Arrival: arr, Ext: features.NewExtractor(g, an.At(arr, 0))}
	drr, err := rr.Edit(smallEdit(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if drr == rr || len(drr.Arrival) != len(rr.Arrival) {
		t.Fatal("uncached Edit did not derive a fresh result")
	}
}
