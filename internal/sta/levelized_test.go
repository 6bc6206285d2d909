package sta_test

import (
	"math"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/elab"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
	"rtltimer/internal/verilog"
)

// seedGraphs builds every seed design under every BOG variant.
func seedGraphs(t testing.TB) []*bog.Graph {
	t.Helper()
	specs := designs.All()
	if testing.Short() {
		specs = specs[:6]
	}
	var out []*bog.Graph
	for _, spec := range specs {
		parsed, err := verilog.Parse(designs.Generate(spec))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		d, err := elab.Elaborate(parsed)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, v := range bog.Variants() {
			g, err := bog.Build(d, v)
			if err != nil {
				t.Fatalf("%s/%v: %v", spec.Name, v, err)
			}
			out = append(out, g)
		}
	}
	return out
}

// sameFloats requires bit-identical slices (NaN-safe, -0 vs +0 sensitive).
func sameFloats(t *testing.T, what string, g *bog.Graph, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s/%v: %s length %d != %d", g.Design, g.Variant, what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s/%v: %s[%d] = %v != %v", g.Design, g.Variant, what, i, a[i], b[i])
		}
	}
}

func sameResult(t *testing.T, g *bog.Graph, a, b *sta.Result) {
	t.Helper()
	sameFloats(t, "Arrival", g, a.Arrival, b.Arrival)
	sameFloats(t, "Slew", g, a.Slew, b.Slew)
	sameFloats(t, "Load", g, a.Load, b.Load)
	sameFloats(t, "EndpointAT", g, a.EndpointAT, b.EndpointAT)
	sameFloats(t, "Slack", g, a.Slack, b.Slack)
	if math.Float64bits(a.WNS) != math.Float64bits(b.WNS) {
		t.Fatalf("%s/%v: WNS %v != %v", g.Design, g.Variant, a.WNS, b.WNS)
	}
	if math.Float64bits(a.TNS) != math.Float64bits(b.TNS) {
		t.Fatalf("%s/%v: TNS %v != %v", g.Design, g.Variant, a.TNS, b.TNS)
	}
	for i := range a.Fanout {
		if a.Fanout[i] != b.Fanout[i] {
			t.Fatalf("%s/%v: Fanout[%d] = %d != %d", g.Design, g.Variant, i, a.Fanout[i], b.Fanout[i])
		}
	}
}

// TestLevelizedMatchesReference: the levelized Analyze must be bit-
// identical to the retained reference implementation on every seed design
// and every representation, at several clock periods.
func TestLevelizedMatchesReference(t *testing.T) {
	lib := liberty.DefaultPseudoLib()
	for _, g := range seedGraphs(t) {
		for _, period := range []float64{0.3, 0.55, 1.0} {
			ref := sta.AnalyzeReference(g, lib, period)
			got := sta.Analyze(g, lib, period)
			sameResult(t, g, ref, got)
		}
	}
}

// TestArrivalsAtComposition: Analyze must equal Arrivals + At, and one
// arrival vector must serve every period.
func TestArrivalsAtComposition(t *testing.T) {
	lib := liberty.DefaultPseudoLib()
	for _, g := range seedGraphs(t) {
		a := sta.NewAnalyzer(g, lib)
		arr := a.Arrivals(1)
		sameFloats(t, "Arrivals", g, arr, a.Arrivals(8))
		for _, p := range []float64{0.4, 0.9} {
			sameResult(t, g, sta.Analyze(g, lib, p), a.At(arr, p))
		}
	}
}

// TestSummaryMatchesAt: Summary's WNS and TNS are bit-identical to At's on
// every seed design and representation over a period sweep, at a period
// where every endpoint meets timing, and on a graph without endpoints.
func TestSummaryMatchesAt(t *testing.T) {
	lib := liberty.DefaultPseudoLib()
	same := func(g *bog.Graph, a *sta.Analyzer, arr []float64, p float64) *sta.Result {
		t.Helper()
		r := a.At(arr, p)
		wns, tns := a.Summary(arr, p)
		if math.Float64bits(wns) != math.Float64bits(r.WNS) || math.Float64bits(tns) != math.Float64bits(r.TNS) {
			t.Fatalf("%s/%v period %v: Summary %v/%v, At %v/%v", g.Design, g.Variant, p, wns, tns, r.WNS, r.TNS)
		}
		return r
	}
	for _, g := range seedGraphs(t) {
		a := sta.NewAnalyzer(g, lib)
		arr := a.Arrivals(1)
		for k := range 16 {
			same(g, a, arr, 0.30+0.05*float64(k))
		}
		slow := 0.0
		for _, ep := range g.Endpoints {
			slow = max(slow, arr[ep.D])
		}
		if r := same(g, a, arr, slow+lib.Setup+1); len(g.Endpoints) > 0 && (r.WNS < 0 || r.TNS != 0) {
			t.Fatalf("%s/%v: WNS %v TNS %v at a period every endpoint meets", g.Design, g.Variant, r.WNS, r.TNS)
		}
	}

	g := bog.NewGraph("no-endpoints", bog.SOG)
	in := g.AddSigName("in")
	g.AndOf(g.NewInput(in, 0), g.NewInput(in, 1))
	a := sta.NewAnalyzer(g, lib)
	if r := same(g, a, a.Arrivals(1), 0.5); r.WNS != 0 || r.TNS != 0 {
		t.Fatalf("no endpoints: WNS %v TNS %v, want 0 and 0", r.WNS, r.TNS)
	}
}
