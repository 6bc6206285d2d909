package sta_test

import (
	"math"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/liberty"
	"rtltimer/internal/part"
	"rtltimer/internal/sta"
)

// stitchedArrivals runs every shard's forward pass and stitches the
// canonical arrival vector — the engine's sharded build path, serially.
func stitchedArrivals(t *testing.T, sa *sta.ShardedAnalyzer) []float64 {
	t.Helper()
	locals := make([][]float64, sa.NumShards())
	for i := range locals {
		locals[i] = sa.ShardArrivals(i)
	}
	arr, err := sa.Stitch(locals)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// shardedAnalyzer partitions g into shards and builds the sharded view of
// an.
func shardedAnalyzer(t *testing.T, an *sta.Analyzer, shards int) *sta.ShardedAnalyzer {
	t.Helper()
	p, err := part.New(an.G, shards)
	if err != nil {
		t.Fatalf("%v shards %d: %v", an.G.Variant, shards, err)
	}
	sa, err := sta.NewShardedAnalyzer(an, p)
	if err != nil {
		t.Fatalf("%v shards %d: %v", an.G.Variant, shards, err)
	}
	return sa
}

// TestShardedArrivalsBitIdentical is the sharding determinism property:
// partition → per-shard forward passes → Stitch must be bit-identical to
// the monolithic forward pass for random graphs in all four variants and
// every shard count.
func TestShardedArrivalsBitIdentical(t *testing.T) {
	lib := liberty.DefaultPseudoLib()
	for _, v := range bog.Variants() {
		for seed := int64(0); seed < 8; seed++ {
			g := randomEditGraph(v, 100+seed)
			an := sta.NewAnalyzer(g, lib)
			want := an.Arrivals(1)
			for _, shards := range []int{1, 2, 4, 8} {
				got := stitchedArrivals(t, shardedAnalyzer(t, an, shards))
				if len(got) != len(want) {
					t.Fatalf("%v seed %d shards %d: %d arrivals, want %d",
						v, seed, shards, len(got), len(want))
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v seed %d shards %d: arrival[%d] = %v, want %v (bitwise)",
							v, seed, shards, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestShardedResultMatchesMonolithic checks the period-level view too:
// WNS/TNS and every endpoint slack from the stitched arrivals equal the
// monolithic analysis bit-for-bit.
func TestShardedResultMatchesMonolithic(t *testing.T) {
	lib := liberty.DefaultPseudoLib()
	for _, v := range bog.Variants() {
		g := randomEditGraph(v, 7)
		an := sta.NewAnalyzer(g, lib)
		for _, shards := range []int{1, 2, 4, 8} {
			arr := stitchedArrivals(t, shardedAnalyzer(t, an, shards))
			for _, period := range []float64{0.2, 0.5, 1.0} {
				want := an.Analyze(period)
				got := an.At(arr, period)
				if math.Float64bits(got.WNS) != math.Float64bits(want.WNS) ||
					math.Float64bits(got.TNS) != math.Float64bits(want.TNS) {
					t.Fatalf("%v shards %d period %v: WNS/TNS %v/%v, want %v/%v",
						v, shards, period, got.WNS, got.TNS, want.WNS, want.TNS)
				}
				for i := range want.Slack {
					if math.Float64bits(got.Slack[i]) != math.Float64bits(want.Slack[i]) {
						t.Fatalf("%v shards %d period %v: slack[%d] differs", v, shards, period, i)
					}
				}
			}
		}
	}
}

// TestStitchRejectsMismatchedVectors: Stitch refuses a vector count other
// than the shard count and a vector whose length differs from its shard's
// node count, instead of scattering out of range.
func TestStitchRejectsMismatchedVectors(t *testing.T) {
	an := sta.NewAnalyzer(randomEditGraph(bog.AIG, 7), liberty.DefaultPseudoLib())
	sa := shardedAnalyzer(t, an, 4)
	if sa.NumShards() < 2 {
		t.Fatalf("want at least 2 shards, got %d", sa.NumShards())
	}
	locals := make([][]float64, sa.NumShards())
	for i := range locals {
		locals[i] = sa.ShardArrivals(i)
	}
	if _, err := sa.Stitch(locals[:len(locals)-1]); err == nil {
		t.Fatal("Stitch accepted one vector too few")
	}
	if _, err := sa.Stitch(append(locals, locals[0])); err == nil {
		t.Fatal("Stitch accepted one vector too many")
	}
	short := append([][]float64(nil), locals...)
	short[1] = short[1][:len(short[1])-1]
	if _, err := sa.Stitch(short); err == nil {
		t.Fatal("Stitch accepted a truncated shard vector")
	}
	long := append([][]float64(nil), locals...)
	long[0] = append(append([]float64(nil), long[0]...), 0)
	if _, err := sa.Stitch(long); err == nil {
		t.Fatal("Stitch accepted an overlong shard vector")
	}
	if _, err := sa.Stitch(locals); err != nil {
		t.Fatalf("well-formed vectors rejected: %v", err)
	}
}
