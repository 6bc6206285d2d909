package engine

import (
	"os"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
)

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

// TestShardedBuildBitIdentical: a sharded engine (fixed and automatic
// shard counts, several jobs values) produces representation evaluations
// bit-identical to the monolithic engine on every variant.
func TestShardedBuildBitIdentical(t *testing.T) {
	d, src := buildDesign(t)
	tag := DesignTag(d.Name, src)
	mono := evalAll(t, New(1), FixedDesign(d), tag)
	for _, shards := range []int{0, 2, 4, 8} {
		for _, jobs := range []int{1, 8} {
			e := New(jobs)
			e.SetShards(shards)
			got := evalAll(t, e, FixedDesign(d), tag)
			for _, v := range bog.Variants() {
				requireIdentical(t, mono[v], got[v])
			}
			if shards > 1 && !got[bog.AIG].Sharded() {
				t.Fatalf("shards=%d: build did not carry a shard view", shards)
			}
		}
	}
}

// TestShardedWarmRunZeroBuilds: sharded runs persist through the same
// full-entry format, so a warm sharded run does zero graph builds — and a
// cache written by a *monolithic* engine serves a sharded one unchanged
// (no forced cache wipe on upgrade).
func TestShardedWarmRunZeroBuilds(t *testing.T) {
	d, src := buildDesign(t)
	tag := DesignTag(d.Name, src)

	for name, coldShards := range map[string]int{"sharded-cache": 4, "monolithic-cache": 1} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cold := New(2).withDir(dir)
			cold.SetShards(coldShards)
			coldRes := evalAll(t, cold, FixedDesign(d), tag)

			warm := New(2).withDir(dir)
			warm.SetShards(4)
			warmRes := evalAll(t, warm, failingSource(t), tag)
			st := warm.Stats()
			if st.Builds != 0 || st.DiskHits != int64(len(bog.Variants())) {
				t.Fatalf("warm sharded run stats %+v, want 0 builds and %d disk hits", st, len(bog.Variants()))
			}
			for _, v := range bog.Variants() {
				requireIdentical(t, coldRes[v], warmRes[v])
			}
		})
	}
}

// routableEdit finds a delta confined to one shard: a fanin re-point on a
// node whose fanins and target are all exclusively owned by the node's
// shard.
func routableEdit(t *testing.T, rr *RepResult) bog.Delta {
	t.Helper()
	p := rr.partition()
	if p == nil {
		t.Fatal("result carries no shard partition")
	}
	g := rr.Graph
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		nd := &g.Nodes[i]
		if nd.NumFanin() < 2 {
			continue
		}
		o := p.Owner(bog.NodeID(i))
		if o < 0 || nd.Fanin[0] == nd.Fanin[1] {
			continue
		}
		if p.Owner(nd.Fanin[0]) != o || p.Owner(nd.Fanin[1]) != o {
			continue
		}
		return bog.Delta{bog.SetFaninEdit(bog.NodeID(i), 0, nd.Fanin[1])}
	}
	t.Fatal("no shard-routable edit found")
	return nil
}

// TestShardLocalEditBitIdentical: a shard-routed Edit must be
// bit-identical to the full-graph derivation and to a from-scratch
// analysis of the edited graph, and must be counted as a ShardEdit.
func TestShardLocalEditBitIdentical(t *testing.T) {
	d, src := buildDesign(t)
	tag := DesignTag(d.Name, src)
	e := New(2)
	e.SetShards(4)
	rr, err := e.EvalRep(Key{Design: tag, Variant: bog.AIG}, liberty.DefaultPseudoLib(), FixedDesign(d))
	if err != nil {
		t.Fatal(err)
	}
	delta := routableEdit(t, rr)
	if s := rr.routeShard(rr.partition(), delta); s < 0 {
		t.Fatalf("edit %v did not route to a shard", delta)
	}

	sharded, err := rr.Edit(delta)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.ShardEdits != 1 || st.Edits != 1 {
		t.Fatalf("stats %+v, want the edit derived shard-locally", st)
	}

	// Full-graph derivation of the same delta (base stripped of its shard
	// view, detached from the cache so it really recomputes).
	monoBase := rr.Detached()
	monoBase.sh, monoBase.shLazy = nil, nil
	full, err := monoBase.Edit(delta)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, full, sharded)

	// From-scratch oracle on the edited graph.
	g2 := rr.Graph.Clone()
	if _, err := g2.Apply(delta); err != nil {
		t.Fatal(err)
	}
	an2 := sta.NewAnalyzer(g2, liberty.DefaultPseudoLib())
	arr2 := an2.Arrivals(1)
	fresh := &RepResult{Graph: g2, An: an2, Arrival: arr2}
	requireIdenticalTiming(t, fresh, sharded)

	// A delta touching a shared node (the constants live in every shard)
	// must fall back to the full-graph path and still match it.
	shared := smallEdit(t, rr.Graph)
	if s := rr.routeShard(rr.partition(), shared); s >= 0 {
		t.Fatalf("const-targeting edit unexpectedly routed to shard %d", s)
	}
	viaSharded, err := rr.Edit(shared)
	if err != nil {
		t.Fatal(err)
	}
	viaFull, err := monoBase.Edit(shared)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, viaFull, viaSharded)
}

// TestSharedUntouchedFaninStillRoutes: an edit on an owned node routes
// shard-locally even when one of the node's *untouched* fanins is a
// shared replica — only the displaced slot and the new target carry
// load-affected state — and the result stays bit-identical to the
// full-graph derivation.
func TestSharedUntouchedFaninStillRoutes(t *testing.T) {
	d, src := buildDesign(t)
	tag := DesignTag(d.Name, src)
	e := New(2)
	e.SetShards(4)
	rr, err := e.EvalRep(Key{Design: tag, Variant: bog.AIG}, liberty.DefaultPseudoLib(), FixedDesign(d))
	if err != nil {
		t.Fatal(err)
	}
	sh := rr.sharded()
	p := sh.P
	g := rr.Graph

	// Find node X owned by shard o with an owned fanin in one slot and a
	// shared fanin in the other, plus a distinct owned target to re-point
	// the owned slot at.
	var delta bog.Delta
search:
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		nd := &g.Nodes[i]
		o := p.Owner(bog.NodeID(i))
		if nd.NumFanin() < 2 || o < 0 {
			continue
		}
		for slot := 0; slot < 2; slot++ {
			if p.Owner(nd.Fanin[slot]) != o || p.Owner(nd.Fanin[1-slot]) >= 0 {
				continue // need owned displaced slot, shared sibling
			}
			for m := bog.NodeID(i) - 1; m >= 0; m-- {
				if m != nd.Fanin[slot] && p.Owner(m) == o {
					delta = bog.Delta{bog.SetFaninEdit(bog.NodeID(i), slot, m)}
					break search
				}
			}
		}
	}
	if delta == nil {
		t.Skip("no owned node with a shared untouched fanin in this design/partition")
	}
	s := rr.routeShard(p, delta)
	if s < 0 {
		t.Fatalf("edit %v with shared untouched fanin did not route", delta)
	}
	shardRes, err := rr.Edit(delta)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.ShardEdits != 1 {
		t.Fatalf("stats %+v, want one shard-local edit", st)
	}
	monoBase := rr.Detached()
	monoBase.sh, monoBase.shLazy = nil, nil
	fullRes, err := monoBase.Edit(delta)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, fullRes, shardRes)
}

// TestMalformedDeltaOnShardedBase: invalid deltas on a sharded base must
// fail with CheckDelta's clean error — exactly like on a monolithic base
// — never panic inside shard routing.
func TestMalformedDeltaOnShardedBase(t *testing.T) {
	d, src := buildDesign(t)
	tag := DesignTag(d.Name, src)
	e := New(2)
	e.SetShards(4)
	rr, err := e.EvalRep(Key{Design: tag, Variant: bog.AIG}, liberty.DefaultPseudoLib(), FixedDesign(d))
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
			t.Errorf("malformed delta %d accepted on sharded base", i)
		}
	}
}

// TestWarmRestoreRoutesShardLocal: a result restored whole from the disk
// tier materializes its shard view lazily, so edits on warm sessions
// still derive shard-locally — bit-identical to the cold sharded
// derivation.
func TestWarmRestoreRoutesShardLocal(t *testing.T) {
	d, src := buildDesign(t)
	tag := DesignTag(d.Name, src)
	dir := t.TempDir()
	lib := liberty.DefaultPseudoLib()
	key := Key{Design: tag, Variant: bog.AIG}

	cold := New(2).withDir(dir)
	cold.SetShards(4)
	coldRR, err := cold.EvalRep(key, lib, FixedDesign(d))
	if err != nil {
		t.Fatal(err)
	}
	delta := routableEdit(t, coldRR)
	coldEdit, err := coldRR.Edit(delta)
	if err != nil {
		t.Fatal(err)
	}

	warm := New(2).withDir(dir)
	warm.SetShards(4)
	warmRR, err := warm.EvalRep(key, lib, failingSource(t))
	if err != nil {
		t.Fatal(err)
	}
	if !warmRR.Sharded() {
		t.Fatal("warm restore lost the (lazy) shard view")
	}
	warmEdit, err := warmRR.Edit(delta)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Builds != 0 || st.ShardEdits != 1 {
		t.Fatalf("warm stats %+v, want zero builds and one shard-local edit", st)
	}
	requireIdentical(t, coldEdit, warmEdit)
}

// requireIdenticalTiming compares graph/analyzer/arrival state only (for
// oracles that carry no extractor).
func requireIdenticalTiming(t *testing.T, a, b *RepResult) {
	t.Helper()
	c := *b
	d := *a
	d.Ext = b.Ext // neutralize the extractor comparison
	requireIdentical(t, &d, &c)
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
