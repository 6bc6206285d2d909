package sta

import (
	"fmt"

	"rtltimer/internal/part"
)

// ShardedAnalyzer is the forward pass over a one-shard partition
// (package part): its one shard is the whole graph, so its arrivals are
// the analyzer's own. It stays only for perfbench and goes with ROADMAP
// item 2's benchmark PR.
type ShardedAnalyzer struct {
	an *Analyzer
}

// NewShardedAnalyzer wraps an for a partition of an.G. It refuses a
// partition of another graph and one of more than one shard. It stays
// only for perfbench and goes with ROADMAP item 2's benchmark PR.
func NewShardedAnalyzer(an *Analyzer, p *part.Partition) (*ShardedAnalyzer, error) {
	if p.G != an.G {
		return nil, fmt.Errorf("sta: partition is over a different graph than the analyzer")
	}
	if p.K != 1 {
		return nil, fmt.Errorf("sta: partition has %d shards, only one is supported", p.K)
	}
	return &ShardedAnalyzer{an: an}, nil
}

// ShardArrivals returns the arrival vector of the one shard, the
// analyzer's serial forward pass. It stays only for perfbench and goes
// with ROADMAP item 2's benchmark PR.
func (sa *ShardedAnalyzer) ShardArrivals(i int) []float64 {
	return sa.an.Arrivals(1)
}

// Stitch returns the one shard's vector as the global arrival vector. It
// refuses anything other than one vector covering every node. It stays
// only for perfbench and goes with ROADMAP item 2's benchmark PR.
func (sa *ShardedAnalyzer) Stitch(locals [][]float64) ([]float64, error) {
	if len(locals) != 1 {
		return nil, fmt.Errorf("sta: stitch got %d shard vectors, partition has 1", len(locals))
	}
	if len(locals[0]) != len(sa.an.G.Nodes) {
		return nil, fmt.Errorf("sta: shard arrival vector covers %d nodes, graph has %d", len(locals[0]), len(sa.an.G.Nodes))
	}
	return locals[0], nil
}
