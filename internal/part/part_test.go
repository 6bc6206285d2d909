package part

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rtltimer/internal/bog"
)

// randomGraph builds a structurally valid random graph through the public
// constructors (mirroring the generators in the bog and sta tests, which
// are package-local there).
func randomGraph(v bog.Variant, seed int64) *bog.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := bog.NewGraph(fmt.Sprintf("part-%v-%d", v, seed), v)
	var pool []bog.NodeID
	for i := 0; i < 2+rng.Intn(5); i++ {
		sig := g.AddSigName(fmt.Sprintf("in%d", i))
		for b := 0; b < 1+rng.Intn(3); b++ {
			pool = append(pool, g.NewInput(sig, b))
		}
	}
	var regs []bog.NodeID
	for i := 0; i < 1+rng.Intn(4); i++ {
		sig := g.AddSigName(fmt.Sprintf("r%d", i))
		for b := 0; b < 1+rng.Intn(3); b++ {
			q := g.NewRegQ(sig, b)
			regs = append(regs, q)
			pool = append(pool, q)
		}
	}
	pick := func() bog.NodeID { return pool[rng.Intn(len(pool))] }
	for i := 0; i < 20+rng.Intn(150); i++ {
		var id bog.NodeID
		switch rng.Intn(5) {
		case 0:
			id = g.NotOf(pick())
		case 1:
			id = g.AndOf(pick(), pick())
		case 2:
			id = g.OrOf(pick(), pick())
		case 3:
			id = g.XorOf(pick(), pick())
		case 4:
			id = g.MuxOf(pick(), pick(), pick())
		}
		pool = append(pool, id)
	}
	for i, q := range regs {
		g.Endpoints = append(g.Endpoints, bog.Endpoint{
			Ref: bog.SignalRef{Signal: g.SigNames[g.Nodes[q].Sig], Bit: int(g.Nodes[q].Bit)},
			D:   pick(),
			Q:   q,
		})
		if i == 0 {
			g.Endpoints = append(g.Endpoints, bog.Endpoint{
				Ref: bog.SignalRef{Signal: "po", Bit: 0}, D: pick(), Q: bog.Nil, IsPO: true,
			})
		}
	}
	return g
}

// TestPartitionInvariants checks the structural contract on random graphs
// in all four variants and several shard counts: shards are valid
// fanin-closed subgraphs, every combinational node is covered, every
// endpoint is assigned exactly once, and exclusive ownership means
// exactly-one-shard membership.
func TestPartitionInvariants(t *testing.T) {
	for _, v := range bog.Variants() {
		for seed := int64(0); seed < 6; seed++ {
			g := randomGraph(v, seed)
			for _, k := range []int{1, 2, 4, 8} {
				p, err := New(g, k)
				if err != nil {
					t.Fatalf("%v seed %d k %d: %v", v, seed, k, err)
				}
				// k is clamped to the root count, so small graphs may get
				// fewer shards than requested.
				if p.K < 1 || p.K > k || len(p.Shards) != p.K {
					t.Fatalf("%v seed %d: got %d shards (K=%d) for request %d", v, seed, len(p.Shards), p.K, k)
				}
				covered := make([]int, len(g.Nodes))
				for s := range p.Shards {
					sh := &p.Shards[s]
					if err := sh.Graph.Check(); err != nil {
						t.Fatalf("%v seed %d k %d shard %d: invalid subgraph: %v", v, seed, k, s, err)
					}
					if len(sh.Graph.Nodes) != len(sh.Nodes) {
						t.Fatalf("%v seed %d k %d shard %d: node map covers %d of %d nodes",
							v, seed, k, s, len(sh.Nodes), len(sh.Graph.Nodes))
					}
					for l, gid := range sh.Nodes {
						covered[gid]++
						if sh.Graph.Nodes[l].Op != g.Nodes[gid].Op {
							t.Fatalf("%v seed %d k %d shard %d: node %d op mismatch", v, seed, k, s, l)
						}
						if sh.LocalID(gid) != bog.NodeID(l) {
							t.Fatalf("%v seed %d k %d shard %d: LocalID(%d) != %d", v, seed, k, s, gid, l)
						}
					}
				}
				for i := range g.Nodes {
					switch op := g.Nodes[i].Op; op {
					case bog.Not, bog.And, bog.Or, bog.Xor, bog.Mux:
						if covered[i] == 0 {
							t.Fatalf("%v seed %d k %d: combinational node %d uncovered", v, seed, k, i)
						}
					}
					if o := p.Owner(bog.NodeID(i)); o >= 0 && covered[i] != 1 {
						t.Fatalf("%v seed %d k %d: node %d owned by shard %d but covered %d times",
							v, seed, k, i, o, covered[i])
					}
				}
				eps := 0
				for s := range p.Shards {
					eps += len(p.Shards[s].Endpoints)
					if len(p.Shards[s].Graph.Endpoints) != len(p.Shards[s].Endpoints) {
						t.Fatalf("%v seed %d k %d shard %d: endpoint lists out of sync", v, seed, k, s)
					}
				}
				if eps != len(g.Endpoints) {
					t.Fatalf("%v seed %d k %d: %d endpoints assigned, want %d", v, seed, k, eps, len(g.Endpoints))
				}
			}
		}
	}
}

// TestPartitionDeterministic: same graph, same K → identical partition.
func TestPartitionDeterministic(t *testing.T) {
	g := randomGraph(bog.AIG, 11)
	a, err := New(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := range a.Shards {
		if !reflect.DeepEqual(a.Shards[s].Nodes, b.Shards[s].Nodes) {
			t.Fatalf("shard %d node sets differ between runs", s)
		}
		if !reflect.DeepEqual(a.Shards[s].Endpoints, b.Shards[s].Endpoints) {
			t.Fatalf("shard %d endpoint sets differ between runs", s)
		}
	}
	if !reflect.DeepEqual(a.owner, b.owner) {
		t.Fatal("ownership differs between runs")
	}
}

// TestHugeShardCountClamped: an absurd explicit shard request must not
// allocate per-shard bookkeeping for empty shards (k is clamped to the
// root count), and the clamped partition must still be valid.
func TestHugeShardCountClamped(t *testing.T) {
	g := randomGraph(bog.SOG, 5)
	p, err := New(g, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if p.K < 1 || p.K > len(g.Endpoints)+g.NumNodes() {
		t.Fatalf("K = %d not clamped to the root count", p.K)
	}
	for s := range p.Shards {
		if err := p.Shards[s].Graph.Check(); err != nil {
			t.Fatalf("shard %d invalid after clamping: %v", s, err)
		}
	}
}

// subsetConeGraph builds the satellite-1 regression shape: one big chain
// cone A, a second endpoint whose cone is a strict subset of A (its
// driver is a mid-chain node), and a small disjoint cone B. The subset
// cone adds zero new nodes on A's shard, so an overlap-aware packing
// co-locates it there — the pre-overlap additive cost (load + marginal)
// instead sent it to the emptier shard, replicating A's prefix.
func subsetConeGraph() *bog.Graph {
	g := bog.NewGraph("subset-cone", bog.AIG)
	in := g.AddSigName("in")
	var chain bog.NodeID
	for i := 0; i < 12; i++ {
		b := g.NewInput(in, i)
		if i == 0 {
			chain = b
		} else {
			chain = g.AndOf(chain, b)
		}
		if i == 6 {
			// The subset endpoint's driver: a mid-chain node, so its cone
			// is a strict prefix of A's.
			g.Endpoints = append(g.Endpoints, bog.Endpoint{
				Ref: bog.SignalRef{Signal: "mid", Bit: 0}, D: chain, Q: bog.Nil, IsPO: true,
			})
		}
	}
	g.Endpoints = append(g.Endpoints, bog.Endpoint{
		Ref: bog.SignalRef{Signal: "top", Bit: 0}, D: chain, Q: bog.Nil, IsPO: true,
	})
	other := g.AddSigName("other")
	small := g.AndOf(g.NewInput(other, 0), g.NewInput(other, 1))
	g.Endpoints = append(g.Endpoints, bog.Endpoint{
		Ref: bog.SignalRef{Signal: "small", Bit: 0}, D: small, Q: bog.Nil, IsPO: true,
	})
	return g
}

// TestFullyOverlappingConeCoLocates is the satellite-1 regression: a cone
// already fully present on a shard must land on that shard (zero
// replication), which requires both the marginal-first placement and
// constants staying out of the load accounting.
func TestFullyOverlappingConeCoLocates(t *testing.T) {
	g := subsetConeGraph()
	p, err := New(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	shardOf := make(map[int]int) // endpoint index → shard
	for s := range p.Shards {
		for _, ep := range p.Shards[s].Endpoints {
			shardOf[ep] = s
		}
	}
	// Endpoint 0 (mid-chain subset) and endpoint 1 (full chain) share a
	// shard; the disjoint small cone lives on the other.
	if shardOf[0] != shardOf[1] {
		t.Fatalf("subset cone on shard %d, containing cone on shard %d — want co-located", shardOf[0], shardOf[1])
	}
	if shardOf[2] == shardOf[0] {
		t.Fatalf("disjoint cone packed onto the overlap shard %d", shardOf[2])
	}
	if r := p.Replication(); r != 1.0 {
		t.Fatalf("replication %v, want exactly 1.0 (no node replicated)", r)
	}
}

// TestReplicationExcludesConstants: the two constant nodes are replicated
// into every shard by construction and must not count as replication (nor
// toward packing load — the co-location test above would fail otherwise).
func TestReplicationExcludesConstants(t *testing.T) {
	g := randomGraph(bog.SOG, 21)
	p, err := New(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := p.Replication(); r != 1.0 {
		t.Fatalf("single-shard replication %v, want 1.0", r)
	}
}

// TestOwnerOutOfRange pins the fallback contract of satellite 2: ids the
// partitioned graph does not contain — negative, bog.Nil, or beyond the
// node count — report Shared instead of panicking or aliasing a shard.
func TestOwnerOutOfRange(t *testing.T) {
	g := randomGraph(bog.XAG, 3)
	p, err := New(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []bog.NodeID{bog.Nil, -17, bog.NodeID(len(g.Nodes)), bog.NodeID(len(g.Nodes)) + 1000} {
		if o := p.Owner(id); o != Shared {
			t.Fatalf("Owner(%d) = %d, want Shared", id, o)
		}
	}
}

// TestReplicationNeverWorseThanGreedy is the satellite-4 packing
// property: across random graphs, every variant and every shard count,
// the portfolio partitioner must replicate at most as much as the
// retained PR 5 greedy baseline (strictly its portfolio guarantee).
func TestReplicationNeverWorseThanGreedy(t *testing.T) {
	for _, v := range bog.Variants() {
		for seed := int64(0); seed < 6; seed++ {
			g := randomGraph(v, 300+seed)
			for _, k := range []int{1, 2, 4, 8} {
				p, err := New(g, k)
				if err != nil {
					t.Fatal(err)
				}
				gr, err := NewGreedy(g, k)
				if err != nil {
					t.Fatal(err)
				}
				if pr, gg := p.Replication(), gr.Replication(); pr > gg {
					t.Fatalf("%v seed %d k %d: New replicates %.4f, greedy baseline %.4f", v, seed, k, pr, gg)
				}
			}
		}
	}
}

func TestAuto(t *testing.T) {
	cases := []struct{ regs, want int }{
		{0, 1}, {63, 1}, {127, 1}, // small designs stay monolithic
		{128, 2}, {378, 5}, {640, 10},
		{64 * MaxShards, MaxShards}, {1 << 20, MaxShards}, // capped
	}
	for _, tc := range cases {
		if got := Auto(tc.regs); got != tc.want {
			t.Errorf("Auto(%d) = %d, want %d", tc.regs, got, tc.want)
		}
	}
}
