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
