package features

import (
	"math"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/elab"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
	"rtltimer/internal/verilog"
)

func setup(t *testing.T) (*bog.Graph, *sta.Result, *Extractor) {
	t.Helper()
	src := `
module f(input clk, input [7:0] a, input [7:0] b, output [7:0] o);
  reg [7:0] r1, r2;
  always @(posedge clk) begin
    r1 <= a + b;
    r2 <= (r1 * a) ^ b;
  end
  assign o = r2;
endmodule`
	parsed, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(parsed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := bog.Build(d, bog.SOG)
	if err != nil {
		t.Fatal(err)
	}
	r := sta.Analyze(g, liberty.DefaultPseudoLib(), 1.0)
	return g, r, NewExtractor(g, r)
}

func TestPathVectorShape(t *testing.T) {
	g, r, ext := setup(t)
	names := FeatureNames()
	if len(names) != NumFeatures() {
		t.Fatal("name/size mismatch")
	}
	for ep := range g.Endpoints {
		p := r.SlowestPath(g, ep)
		v := ext.PathVector(ep, p)
		if len(v) != NumFeatures() {
			t.Fatalf("vector length %d, want %d", len(v), NumFeatures())
		}
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("feature %s not finite: %f", names[i], x)
			}
		}
	}
}

func TestRankPercentiles(t *testing.T) {
	g, _, ext := setup(t)
	if _, rank := ext.State(); len(rank) != len(g.Endpoints) {
		t.Fatal("rank size")
	}
	var lo, hi float64 = 2, -1
	for ep := range g.Endpoints {
		p := ext.Rank(ep)
		if p <= 0 || p > 1 {
			t.Fatalf("rank pct %f out of (0,1]", p)
		}
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	if hi != 1 {
		t.Errorf("max rank pct %f, want 1", hi)
	}
}

func TestConesComputed(t *testing.T) {
	g, _, ext := setup(t)
	// r2 endpoints should have larger cones than r1 (they include the
	// multiplier fed by r1).
	var r1Max, r2Max int
	for ep, e := range g.Endpoints {
		switch n := ext.Cone(ep).Nodes; e.Ref.Signal {
		case "r1":
			r1Max = max(r1Max, n)
		case "r2":
			r2Max = max(r2Max, n)
		}
	}
	if r2Max <= r1Max {
		t.Errorf("r2 cone (%d) should exceed r1 cone (%d)", r2Max, r1Max)
	}
}

func TestSeqFeatures(t *testing.T) {
	g, r, ext := setup(t)
	p := r.SlowestPath(g, 0)
	seq := ext.SeqFeatures(p)
	if len(seq) != len(p) {
		t.Fatalf("seq length %d != path %d", len(seq), len(p))
	}
	for _, row := range seq {
		if len(row) != NodeSeqDim() {
			t.Fatalf("row dim %d", len(row))
		}
		ones := 0
		for i := 0; i < 9; i++ {
			if row[i] == 1 {
				ones++
			}
		}
		if ones != 1 {
			t.Fatalf("op one-hot has %d ones", ones)
		}
	}
}

func TestCorrelationsAgainstPseudoLabels(t *testing.T) {
	g, r, ext := setup(t)
	// Use pseudo-STA arrivals as synthetic labels: the ep_arrival_sta
	// feature must then correlate perfectly.
	labels := make([]float64, len(g.Endpoints))
	for ep := range g.Endpoints {
		labels[ep] = r.EndpointAT[ep]
	}
	cors := ext.Correlations(labels)
	if cors["ep_arrival_sta"] < 0.999 {
		t.Errorf("self-correlation %f", cors["ep_arrival_sta"])
	}
	// NaN labels are skipped without panic.
	labels[0] = math.NaN()
	_ = ext.Correlations(labels)
}

// TestDesignVector: the design features are the logs of the graph's
// register, combinational and total cell counts, bit for bit.
func TestDesignVector(t *testing.T) {
	g, _, ext := setup(t)
	dv := ext.DesignVector()
	if len(dv) != 3 {
		t.Fatalf("design vector: %v", dv)
	}
	for _, v := range dv {
		if v <= 0 {
			t.Errorf("design feature %f should be positive", v)
		}
	}
	seq, comb := float64(g.SeqNodes()), float64(g.CombNodes())
	for i, want := range []float64{log1p(seq), log1p(comb), log1p(seq + comb)} {
		if math.Float64bits(dv[i]) != math.Float64bits(want) {
			t.Errorf("design feature %d = %v, want %v", i, dv[i], want)
		}
	}
}
