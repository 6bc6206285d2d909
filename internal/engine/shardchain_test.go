package engine

import (
	"fmt"
	"runtime"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
)

// routableInsert finds an insert delta confined to one shard: a new And
// over two fanins exclusively owned by the same shard.
func routableInsert(t *testing.T, rr *RepResult) bog.Delta {
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
		if o < 0 || p.Owner(nd.Fanin[0]) != o || p.Owner(nd.Fanin[1]) != o {
			continue
		}
		return bog.Delta{bog.InsertEdit(bog.And, nd.Fanin[0], nd.Fanin[1])}
	}
	t.Fatal("no shard-routable insert found")
	return nil
}

// TestEditChainStaysShardLocal is the tentpole-B acceptance test: a chain
// of 4 routable edits — including an insert and a follow-up edit on the
// inserted node, which exercises the derived ownership table — derives
// every hop shard-locally (ShardEdits == chain length), stays
// bit-identical to both the monolithic derivation chain and a
// from-scratch analysis of the final graph, and recovers the shard-local
// path after a non-routable hop in the middle.
func TestEditChainStaysShardLocal(t *testing.T) {
	d, src := buildDesign(t)
	tag := DesignTag(d.Name, src)
	lib := liberty.DefaultPseudoLib()
	e := New(2)
	e.SetShards(4)
	rr, err := e.EvalRep(Key{Design: tag, Variant: bog.AIG}, lib, FixedDesign(d))
	if err != nil {
		t.Fatal(err)
	}

	var chain []bog.Delta
	cur := rr
	step := func(delta bog.Delta) {
		t.Helper()
		next, err := cur.Edit(delta)
		if err != nil {
			t.Fatalf("hop %d: %v", len(chain), err)
		}
		chain = append(chain, delta)
		cur = next
		if !cur.Sharded() {
			t.Fatalf("hop %d dropped the shard view", len(chain)-1)
		}
		if st := e.Stats(); st.ShardEdits != int64(len(chain)) {
			t.Fatalf("after hop %d: stats %+v, want ShardEdits == %d (every hop shard-local)",
				len(chain)-1, st, len(chain))
		}
	}

	step(routableEdit(t, cur))
	step(routableInsert(t, cur))
	// Edit the node the previous hop inserted: its ownership exists only
	// in the derived partition's extended table.
	ins := bog.NodeID(len(cur.Graph.Nodes) - 1)
	step(bog.Delta{bog.SetFaninEdit(ins, 0, cur.Graph.Nodes[ins].Fanin[1])})
	step(routableEdit(t, cur))

	// Monolithic chain oracle: same hops on the base stripped of its shard
	// view and detached from the cache.
	mono := rr.Detached()
	mono.sh, mono.shLazy = nil, nil
	for i, delta := range chain {
		if mono, err = mono.Edit(delta); err != nil {
			t.Fatalf("monolithic hop %d: %v", i, err)
		}
	}
	requireIdentical(t, mono, cur)

	// From-scratch oracle on the final graph.
	g2 := rr.Graph.Clone()
	for i, delta := range chain {
		if _, err := g2.Apply(delta); err != nil {
			t.Fatalf("replay hop %d: %v", i, err)
		}
	}
	an2 := sta.NewAnalyzer(g2, lib)
	requireIdenticalTiming(t, &RepResult{Graph: g2, An: an2, Arrival: an2.Arrivals(1)}, cur)

	// A non-routable hop (constant-targeting edit — constants are shared)
	// falls back to the full-graph path without counting a ShardEdit, but
	// the result must carry a lazy re-shard so the chain recovers.
	shared := smallEdit(t, cur.Graph)
	cur, err = cur.Edit(shared)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.ShardEdits != 4 {
		t.Fatalf("stats %+v after shared hop, want ShardEdits still 4", st)
	}
	if !cur.Sharded() {
		t.Fatal("full-graph fallback hop dropped the re-shard policy")
	}
	next, err := cur.Edit(routableEdit(t, cur))
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.ShardEdits != 5 {
		t.Fatalf("stats %+v, want the post-fallback hop shard-local again", st)
	}
	if !next.Sharded() {
		t.Fatal("recovered chain dropped the shard view")
	}
}

// overlapGraph builds a design whose endpoint cones share one big
// combinational core (core nodes over 8 shared inputs) but carry enough
// private source support (9 private inputs each) that no pair of cones
// clusters — any k > 1 partition must replicate the core onto every
// shard, pushing replication well past 1.5x. core == 0 drops the shared
// structure entirely, giving fully disjoint cones (replication exactly
// 1.0). eps is the number of register endpoints.
func overlapGraph(core, eps int) *bog.Graph {
	g := bog.NewGraph(fmt.Sprintf("overlap-%d-%d", core, eps), bog.SOG)
	var c bog.NodeID
	if core > 0 {
		shared := g.AddSigName("shared")
		var ins []bog.NodeID
		for b := 0; b < 8; b++ {
			ins = append(ins, g.NewInput(shared, b))
		}
		c = ins[0]
		for i := 0; i < core; i++ {
			c = g.XorOf(c, ins[(i+1)%8])
		}
	}
	for i := 0; i < eps; i++ {
		priv := g.AddSigName(fmt.Sprintf("p%d", i))
		leaf := g.NewInput(priv, 0)
		for b := 1; b < 9; b++ {
			leaf = g.XorOf(leaf, g.NewInput(priv, b))
		}
		d := leaf
		if core > 0 {
			d = g.AndOf(leaf, c)
		}
		rsig := g.AddSigName(fmt.Sprintf("r%d", i))
		q := g.NewRegQ(rsig, 0)
		g.Endpoints = append(g.Endpoints, bog.Endpoint{
			Ref: bog.SignalRef{Signal: fmt.Sprintf("r%d", i), Bit: 0}, D: d, Q: q,
		})
	}
	return g
}

// TestExplicitLazyShardsMaterialize: an explicit lazy shard view
// materializes its partition however much the cones overlap — no
// replication gate stands between a forced count and its partition — and
// disjoint cones replicate exactly 1.0.
func TestExplicitLazyShardsMaterialize(t *testing.T) {
	hot := &RepResult{Graph: overlapGraph(6000, 128), shLazy: &lazyShards{k: 2}}
	p := hot.partition()
	if p == nil {
		t.Fatal("explicit lazy view refused to materialize on a high-overlap graph")
	}
	if r := p.Replication(); r <= 1.5 {
		t.Fatalf("test graph replicates only %.3f — not high-overlap, rebuild the fixture", r)
	}

	cold := &RepResult{Graph: overlapGraph(0, 128), shLazy: &lazyShards{k: 2}}
	if p := cold.partition(); p == nil || p.K != 2 {
		t.Fatalf("disjoint cones materialized %v, want a 2-shard partition", p)
	} else if r := p.Replication(); r != 1.0 {
		t.Fatalf("disjoint cones replicate %.3f, want 1.0", r)
	}
}

// liftGOMAXPROCS raises GOMAXPROCS to at least 2 for the test. The
// retired automatic policy capped its shard count at the core count, so
// on one core the policy tests below could not tell it from monolithic.
func liftGOMAXPROCS(t *testing.T) {
	if old := runtime.GOMAXPROCS(0); old < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// TestBuildsNeverPartition: neither a cold build nor a disk load
// partitions, under any policy. At 0 and 1 a result carries no shard
// view; at an explicit 4 it carries a lazy one whose partition waits for
// the first Edit. buildDesign's syscdes is large enough that the retired
// automatic policy sharded it at build time.
func TestBuildsNeverPartition(t *testing.T) {
	liftGOMAXPROCS(t)
	d, src := buildDesign(t)
	tag := DesignTag(d.Name, src)
	n := int64(len(bog.Variants()))
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
			if st := e.Stats(); (!warm && st.Builds != n) || (warm && st.DiskHits != n) {
				t.Fatalf("shards=%d warm=%v: stats %+v, want %d builds or disk hits", shards, warm, st, n)
			}
			for _, v := range bog.Variants() {
				rr := got[v]
				if rr.sh != nil {
					t.Fatalf("shards=%d warm=%v %v: result carries a partitioned shard view", shards, warm, v)
				}
				if shards <= 1 && rr.shLazy != nil {
					t.Fatalf("shards=%d warm=%v %v: monolithic policy attached a lazy shard view", shards, warm, v)
				}
				if shards > 1 && (rr.shLazy == nil || rr.shLazy.p != nil || rr.shLazy.sa != nil) {
					t.Fatalf("shards=%d warm=%v %v: want a lazy shard view with nothing materialized", shards, warm, v)
				}
			}
		}
	}
}

// TestDefaultPolicyEditsMonolithic: under the default policy every edit
// derives on the full graph. The 8-hop chain mixes edits that route
// shard-locally under syscdes's 2-shard partition (the one the retired
// automatic policy built at jobs 2) with constant-targeting ones, yet
// ShardEdits stays 0, no hop carries a shard view, and every hop's
// arrivals are bit-identical to a fresh analysis of the edited graph.
func TestDefaultPolicyEditsMonolithic(t *testing.T) {
	liftGOMAXPROCS(t)
	d, src := buildDesign(t)
	lib := liberty.DefaultPseudoLib()
	e := New(2)
	e.SetShards(0)
	cur, err := e.EvalRep(Key{Design: DesignTag(d.Name, src), Variant: bog.AIG}, lib, FixedDesign(d))
	if err != nil {
		t.Fatal(err)
	}
	g := cur.Graph.Clone()
	for hop := 0; hop < 8; hop++ {
		// A detached probe with an explicit 2-shard view picks the
		// shard-routable edits.
		probe := &RepResult{Graph: cur.Graph, shLazy: &lazyShards{k: 2}}
		var delta bog.Delta
		switch hop % 3 {
		case 0:
			delta = routableEdit(t, probe)
		case 1:
			delta = routableInsert(t, probe)
		default:
			delta = smallEdit(t, cur.Graph)
		}
		if cur, err = cur.Edit(delta); err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		if cur.Sharded() {
			t.Fatalf("hop %d: default-policy result carries a shard view", hop)
		}
		if st := e.Stats(); st.ShardEdits != 0 || st.Edits != int64(hop+1) {
			t.Fatalf("hop %d: stats %+v, want %d full-graph derivations and no shard-local one", hop, st, hop+1)
		}
		if _, err := g.Apply(delta); err != nil {
			t.Fatalf("replay hop %d: %v", hop, err)
		}
		sameVec(t, fmt.Sprintf("hop %d arrival", hop), sta.Analyze(g, lib, 0).Arrival, cur.Arrival)
	}
}
