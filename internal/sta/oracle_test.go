package sta_test

import (
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
)

// TestDecodedGraphAnalyzerMatchesReference closes the codec→analyzer seam
// the disk cache depends on: a graph round-tripped through the binary BOG
// codec (exactly what a warm cache load deserializes) and analyzed with
// the levelized Analyzer must be bit-identical to the retained
// AnalyzeReference oracle on the original graph — for every seed design,
// every variant, at several clock periods.
func TestDecodedGraphAnalyzerMatchesReference(t *testing.T) {
	lib := liberty.DefaultPseudoLib()
	for _, g := range seedGraphs(t) {
		dec, err := bog.UnmarshalGraph(bog.MarshalGraph(g))
		if err != nil {
			t.Fatalf("%s/%v: round-trip: %v", g.Design, g.Variant, err)
		}
		an := sta.NewAnalyzer(dec, lib)
		for _, period := range []float64{0.3, 0.55, 1.0} {
			sameResult(t, g, sta.AnalyzeReference(g, lib, period), an.Analyze(period))
		}
	}
}

// TestDecodedGraphIncrementalMatchesReference extends the seam check to
// the incremental session: a session opened on a decoded graph must start
// bit-identical to the reference oracle, and stay bit-identical to a
// fresh Analyzer after an edit.
func TestDecodedGraphIncrementalMatchesReference(t *testing.T) {
	lib := liberty.DefaultPseudoLib()
	graphs := seedGraphs(t)
	if len(graphs) > 8 {
		graphs = graphs[:8] // one design under every variant is plenty here
	}
	for _, g := range graphs {
		dec, err := bog.UnmarshalGraph(bog.MarshalGraph(g))
		if err != nil {
			t.Fatalf("%s/%v: round-trip: %v", g.Design, g.Variant, err)
		}
		inc := sta.NewIncremental(dec, lib)
		ref := sta.AnalyzeReference(g, lib, 0.5)
		sameResult(t, g, ref, inc.At(0.5))

		// Edit the decoded graph; the session must agree with a fresh
		// analysis of it (exercising the lazily rebuilt structural state
		// of decoded graphs under mutation).
		var n bog.NodeID = bog.Nil
		for i := range dec.Nodes {
			if dec.Nodes[i].NumFanin() > 0 {
				n = bog.NodeID(i)
			}
		}
		if n == bog.Nil {
			continue
		}
		if _, err := inc.Apply(bog.Delta{bog.SetFaninEdit(n, 0, 0)}); err != nil {
			t.Fatalf("%s/%v: edit: %v", g.Design, g.Variant, err)
		}
		fresh := sta.NewAnalyzer(dec, lib)
		sameFloats(t, "Arrival", g, fresh.Arrivals(1), inc.Arrivals())
	}
}

// TestConeWalkerMatchesReference pins the epoch-stamped cone walker to the
// retained map-based walk on every endpoint of every seed design under
// every variant. One walker walks each graph forward and then in reverse,
// so every walk after the first runs over stamps other walks left behind.
// The last case reuses a walker across an edit that re-points a fanin
// inside an endpoint's cone and appends a node past the walker's stamps.
func TestConeWalkerMatchesReference(t *testing.T) {
	graphs := seedGraphs(t)
	check := func(what string, g *bog.Graph, w *sta.ConeWalker) {
		t.Helper()
		n := len(g.Endpoints)
		for i := 0; i < 2*n; i++ {
			ep := i
			if i >= n {
				ep = 2*n - 1 - i
			}
			if got, want := w.InputCone(ep), sta.InputConeRef(g, ep); got != want {
				t.Fatalf("%s/%v%s: endpoint %d cone %+v, want %+v", g.Design, g.Variant, what, ep, got, want)
			}
		}
	}
	for _, g := range graphs {
		check("", g, sta.NewConeWalker(g))
	}

	g := graphs[0].Clone()
	w := sta.NewConeWalker(g)
	check("", g, w)
	ep, d := -1, bog.Nil
	for i, e := range g.Endpoints {
		if nd := &g.Nodes[e.D]; nd.NumFanin() >= 2 && nd.Fanin[0] != nd.Fanin[1] {
			ep, d = i, e.D
			break
		}
	}
	if ep < 0 {
		t.Fatalf("%s/%v: no endpoint driver with two distinct fanins", g.Design, g.Variant)
	}
	before := sta.InputConeRef(g, ep)
	delta := bog.Delta{
		bog.SetFaninEdit(d, 0, g.Nodes[d].Fanin[1]),
		bog.InsertEdit(bog.Not, d),
	}
	if _, err := g.Apply(delta); err != nil {
		t.Fatalf("%s/%v: edit: %v", g.Design, g.Variant, err)
	}
	if sta.InputConeRef(g, ep) == before {
		t.Fatalf("%s/%v: the edit left endpoint %d's cone unchanged", g.Design, g.Variant, ep)
	}
	check(" after the edit", g, w)
}
