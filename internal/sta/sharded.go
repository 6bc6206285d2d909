package sta

import (
	"fmt"

	"rtltimer/internal/part"
)

// ShardedAnalyzer runs the forward max-plus pass shard-by-shard over a
// register-bounded partition (package part) instead of over the whole
// graph at once. Each shard gets its own Analyzer over the extracted
// subgraph, seeded with the *global* analyzer's static load/slew/delay
// state gathered through the shard's node map — a shard never recomputes
// loads from its local view, so replicated boundary sources carry exactly
// the timing they have in the monolithic analysis. One ShardArrivals call
// is a plain serial forward pass over one shard; shards are mutually
// independent (combinational cones never cross a shard boundary), so a
// caller may run them in any order or concurrently — the engine fans them
// out on its worker pool — and Stitch scatters the local vectors back
// into canonical node order.
//
// The stitched vector is bit-identical to Analyzer.Arrivals: per node,
// the computation is the same max over the same fanin arrivals (max is
// order-insensitive bit-wise) plus the same static delay, and replicas of
// a node in different shards therefore compute identical bits.
//
// A ShardedAnalyzer is immutable after construction and safe for
// concurrent use.
type ShardedAnalyzer struct {
	An *Analyzer
	P  *part.Partition

	shards []*Analyzer

	// writes[s] lists the local ids shard s scatters into the global
	// arrival vector: its "first-cover" nodes, i.e. those no lower shard
	// also holds. Every covered node appears in exactly one list, so the
	// scatter writes each slot once (replicas compute identical bits, so
	// which replica writes is immaterial).
	writes [][]int32

	// fill lists the nodes no shard covers — unreferenced sources, whose
	// arrival is their static delay by definition.
	fill []int32
}

// NewShardedAnalyzer builds the per-shard analyzers for an existing
// partition of an.G, gathering the global static vectors into each
// shard's local node order.
func NewShardedAnalyzer(an *Analyzer, p *part.Partition) (*ShardedAnalyzer, error) {
	if p.G != an.G {
		return nil, fmt.Errorf("sta: partition is over a different graph than the analyzer")
	}
	sa := &ShardedAnalyzer{An: an, P: p, shards: make([]*Analyzer, p.K)}
	for s := range p.Shards {
		sh := &p.Shards[s]
		nl := len(sh.Nodes)
		load := make([]float64, nl)
		slew := make([]float64, nl)
		delay := make([]float64, nl)
		fan := make([]int32, nl)
		for l, g := range sh.Nodes {
			load[l] = an.load[g]
			slew[l] = an.slew[g]
			delay[l] = an.delay[g]
			fan[l] = an.fanout[g]
		}
		a, err := NewAnalyzerFromState(sh.Graph, an.Lib, load, slew, delay, fan)
		if err != nil {
			return nil, err
		}
		sa.shards[s] = a
	}
	seen := make([]bool, len(an.G.Nodes))
	sa.writes = make([][]int32, p.K)
	for s := range p.Shards {
		for l, g := range p.Shards[s].Nodes {
			if !seen[g] {
				seen[g] = true
				sa.writes[s] = append(sa.writes[s], int32(l))
			}
		}
	}
	for i := range an.G.Nodes {
		if !seen[i] {
			if an.G.Nodes[i].NumFanin() != 0 {
				return nil, fmt.Errorf("sta: partition left combinational node %d uncovered", i)
			}
			sa.fill = append(sa.fill, int32(i))
		}
	}
	return sa, nil
}

// NumShards returns the partition's shard count.
func (sa *ShardedAnalyzer) NumShards() int { return sa.P.K }

// ShardAnalyzer returns shard i's analyzer (global static state gathered
// into local node order).
func (sa *ShardedAnalyzer) ShardAnalyzer(i int) *Analyzer { return sa.shards[i] }

// ShardArrivals runs shard i's serial forward pass and returns the local
// arrival vector (indexed by shard-local node id).
func (sa *ShardedAnalyzer) ShardArrivals(i int) []float64 {
	return sa.shards[i].Arrivals(1)
}

// Stitch scatters per-shard arrival vectors (locals[i] from
// ShardArrivals(i)) back into canonical global node order.
// Each covered node is written by exactly one shard (its first-cover
// shard; replicas compute identical bits, so the choice is immaterial),
// and sources outside every shard are filled from their static delay — a
// source's arrival is delay by definition — so the result covers every
// node.
func (sa *ShardedAnalyzer) Stitch(locals [][]float64) ([]float64, error) {
	if len(locals) != len(sa.shards) {
		return nil, fmt.Errorf("sta: stitch got %d shard vectors, partition has %d", len(locals), len(sa.shards))
	}
	for s, local := range locals {
		if len(local) != len(sa.P.Shards[s].Nodes) {
			return nil, fmt.Errorf("sta: shard %d arrival vector covers %d nodes, shard has %d", s, len(local), len(sa.P.Shards[s].Nodes))
		}
	}
	arr := make([]float64, len(sa.An.G.Nodes))
	for _, i := range sa.fill {
		arr[i] = sa.An.delay[i]
	}
	for s, local := range locals {
		nodes := sa.P.Shards[s].Nodes
		for _, l := range sa.writes[s] {
			arr[nodes[l]] = local[l]
		}
	}
	return arr, nil
}

// WithEditedShard returns the sharded view of an analysis derived from sa
// by an edit confined to shard s: an2 is the derived global analyzer, p2
// the derived partition (part.Partition.WithEditedShard), local the
// analyzer over the edited shard subgraph carrying the shard's updated
// static state, and inserted the number of nodes the edit appended.
// Every other shard's analyzer, the scatter write sets and the fill list
// carry over unchanged — ownership closure guarantees the edit changed no
// load, slew, delay or arrival outside shard s, so the sibling shards'
// gathered state still equals the derived global state on their nodes.
// Inserted nodes extend shard s's write set (they are covered by s
// alone), keeping the scatter total over the derived graph. This is what
// lets a *chain* of shard-routed edits keep a live sharded view without
// ever re-partitioning or re-gathering the untouched shards.
func (sa *ShardedAnalyzer) WithEditedShard(an2 *Analyzer, p2 *part.Partition, s int, local *Analyzer, inserted int) *ShardedAnalyzer {
	shards := make([]*Analyzer, len(sa.shards))
	copy(shards, sa.shards)
	shards[s] = local
	writes := sa.writes
	if inserted > 0 {
		writes = make([][]int32, len(sa.writes))
		copy(writes, sa.writes)
		nL := len(sa.P.Shards[s].Nodes)
		w := make([]int32, len(sa.writes[s]), len(sa.writes[s])+inserted)
		copy(w, sa.writes[s])
		for i := 0; i < inserted; i++ {
			w = append(w, int32(nL+i))
		}
		writes[s] = w
	}
	return &ShardedAnalyzer{An: an2, P: p2, shards: shards, writes: writes, fill: sa.fill}
}
