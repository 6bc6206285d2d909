package sta_test

import (
	"math"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/liberty"
	"rtltimer/internal/part"
	"rtltimer/internal/sta"
)

// stitchedArrivals runs part.New → NewShardedAnalyzer → ShardArrivals →
// Stitch for a requested shard count k, the chain perfbench replays.
func stitchedArrivals(t *testing.T, an *sta.Analyzer, k int) []float64 {
	t.Helper()
	sa := shardedAnalyzer(t, an, k)
	arr, err := sa.Stitch([][]float64{sa.ShardArrivals(0)})
	if err != nil {
		t.Fatalf("%v k %d: %v", an.G.Variant, k, err)
	}
	return arr
}

// shardedAnalyzer partitions an.G for a requested shard count k and wraps
// an for that partition.
func shardedAnalyzer(t *testing.T, an *sta.Analyzer, k int) *sta.ShardedAnalyzer {
	t.Helper()
	p, err := part.New(an.G, k)
	if err != nil {
		t.Fatalf("%v k %d: %v", an.G.Variant, k, err)
	}
	sa, err := sta.NewShardedAnalyzer(an, p)
	if err != nil {
		t.Fatalf("%v k %d: %v", an.G.Variant, k, err)
	}
	return sa
}

// TestShardedArrivalsBitIdentical: for every variant and any requested
// shard count, part.New → NewShardedAnalyzer → ShardArrivals → Stitch is
// bit-identical to the monolithic forward pass, and NewShardedAnalyzer
// refuses a partition of another graph and one of more than one shard.
func TestShardedArrivalsBitIdentical(t *testing.T) {
	lib := liberty.DefaultPseudoLib()
	for _, v := range bog.Variants() {
		for seed := int64(0); seed < 8; seed++ {
			g := randomEditGraph(v, 100+seed)
			an := sta.NewAnalyzer(g, lib)
			want := an.Arrivals(1)
			for _, k := range []int{1, 4} {
				got := stitchedArrivals(t, an, k)
				if len(got) != len(want) {
					t.Fatalf("%v seed %d k %d: %d arrivals, want %d", v, seed, k, len(got), len(want))
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v seed %d k %d: arrival[%d] = %v, want %v (bitwise)",
							v, seed, k, i, got[i], want[i])
					}
				}
			}
		}
	}
	an := sta.NewAnalyzer(randomEditGraph(bog.AIG, 7), lib)
	if _, err := sta.NewShardedAnalyzer(an, &part.Partition{G: randomEditGraph(bog.AIG, 8), K: 1}); err == nil {
		t.Fatal("NewShardedAnalyzer accepted a partition of another graph")
	}
	if _, err := sta.NewShardedAnalyzer(an, &part.Partition{G: an.G, K: 2}); err == nil {
		t.Fatal("NewShardedAnalyzer accepted a two-shard partition")
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
		for _, k := range []int{1, 4} {
			arr := stitchedArrivals(t, an, k)
			for _, period := range []float64{0.2, 0.5, 1.0} {
				want := an.Analyze(period)
				got := an.At(arr, period)
				if math.Float64bits(got.WNS) != math.Float64bits(want.WNS) ||
					math.Float64bits(got.TNS) != math.Float64bits(want.TNS) {
					t.Fatalf("%v k %d period %v: WNS/TNS %v/%v, want %v/%v",
						v, k, period, got.WNS, got.TNS, want.WNS, want.TNS)
				}
				for i := range want.Slack {
					if math.Float64bits(got.Slack[i]) != math.Float64bits(want.Slack[i]) {
						t.Fatalf("%v k %d period %v: slack[%d] differs", v, k, period, i)
					}
				}
			}
		}
	}
}

// TestStitchRejectsMismatchedVectors: Stitch refuses a vector count other
// than one and a vector whose length differs from the graph's node count,
// and accepts the one well-formed vector.
func TestStitchRejectsMismatchedVectors(t *testing.T) {
	an := sta.NewAnalyzer(randomEditGraph(bog.AIG, 7), liberty.DefaultPseudoLib())
	sa := shardedAnalyzer(t, an, 4)
	local := sa.ShardArrivals(0)
	if _, err := sa.Stitch(nil); err == nil {
		t.Fatal("Stitch accepted no vector")
	}
	if _, err := sa.Stitch([][]float64{local, local}); err == nil {
		t.Fatal("Stitch accepted one vector too many")
	}
	if _, err := sa.Stitch([][]float64{local[:len(local)-1]}); err == nil {
		t.Fatal("Stitch accepted a truncated vector")
	}
	long := append(append([]float64(nil), local...), 0)
	if _, err := sa.Stitch([][]float64{long}); err == nil {
		t.Fatal("Stitch accepted an overlong vector")
	}
	if _, err := sa.Stitch([][]float64{local}); err != nil {
		t.Fatalf("well-formed vector rejected: %v", err)
	}
}
