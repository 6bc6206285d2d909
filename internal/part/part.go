// Package part is what is left of register-bounded design sharding: the
// names the repository benchmark (perfbench) still calls, with the
// behaviour of a one-shard partition. Nothing in the engine partitions a
// graph; the package goes once ROADMAP item 2's benchmark PR stops
// calling it.
package part

import "rtltimer/internal/bog"

// MaxShards bounds the automatic shard count. It stays only for
// perfbench and goes with ROADMAP item 2's benchmark PR.
const MaxShards = 16

// autoRegsPerShard is the register-bit budget per automatic shard.
const autoRegsPerShard = 64

// Auto returns the automatic shard count for a design with the given
// number of register bits: 1 (monolithic) below 2*autoRegsPerShard bits,
// then one shard per autoRegsPerShard bits, capped at MaxShards. It stays
// only for perfbench and goes with ROADMAP item 2's benchmark PR.
func Auto(regBits int) int {
	k := regBits / autoRegsPerShard
	if k < 2 {
		return 1
	}
	if k > MaxShards {
		return MaxShards
	}
	return k
}

// Partition is a one-shard partition of G: K is always 1. It stays only
// for perfbench and goes with ROADMAP item 2's benchmark PR.
type Partition struct {
	G *bog.Graph
	K int
}

// New returns the one-shard partition of g for every k. It stays only
// for perfbench and goes with ROADMAP item 2's benchmark PR.
func New(g *bog.Graph, k int) (*Partition, error) {
	return &Partition{G: g, K: 1}, nil
}
