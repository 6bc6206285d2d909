package sta

import (
	"math/rand"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/elab"
	"rtltimer/internal/liberty"
	"rtltimer/internal/verilog"
)

func buildGraph(t *testing.T, src string, v bog.Variant) *bog.Graph {
	t.Helper()
	parsed, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(parsed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := bog.Build(d, v)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

const pipelineSrc = `
module pipe(input clk, input [7:0] a, input [7:0] b, output [7:0] out);
  reg [7:0] s1, s2, s3;
  always @(posedge clk) begin
    s1 <= a + b;          // adder cone
    s2 <= s1 & a;         // shallow cone
    s3 <= (s1 * s2) + b;  // deep multiplier cone
  end
  assign out = s3;
endmodule`

func TestAnalyzeMonotonic(t *testing.T) {
	g := buildGraph(t, pipelineSrc, bog.SOG)
	lib := liberty.DefaultPseudoLib()
	r := Analyze(g, lib, 1.0)
	// Arrival must be non-decreasing along every edge.
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		for j := 0; j < nd.NumFanin(); j++ {
			if r.Arrival[nd.Fanin[j]] > r.Arrival[i] {
				t.Fatalf("arrival not monotone at node %d", i)
			}
		}
	}
	if len(r.EndpointAT) != len(g.Endpoints) {
		t.Fatal("endpoint count mismatch")
	}
}

func TestDeepConeIsSlower(t *testing.T) {
	g := buildGraph(t, pipelineSrc, bog.SOG)
	r := Analyze(g, liberty.DefaultPseudoLib(), 1.0)
	// The multiplier stage (s3) must be slower than the AND stage (s2).
	maxAT := map[string]float64{}
	for i, ep := range g.Endpoints {
		if r.EndpointAT[i] > maxAT[ep.Ref.Signal] {
			maxAT[ep.Ref.Signal] = r.EndpointAT[i]
		}
	}
	if maxAT["s3"] <= maxAT["s2"] {
		t.Errorf("s3 (mul cone, %f) should be slower than s2 (and cone, %f)", maxAT["s3"], maxAT["s2"])
	}
	if maxAT["s1"] <= 0 {
		t.Errorf("s1 arrival %f", maxAT["s1"])
	}
}

func TestWNSAndTNS(t *testing.T) {
	g := buildGraph(t, pipelineSrc, bog.SOG)
	lib := liberty.DefaultPseudoLib()
	// A generous period gives zero TNS.
	relaxed := Analyze(g, lib, 100.0)
	if relaxed.TNS != 0 {
		t.Errorf("TNS at relaxed period: %f", relaxed.TNS)
	}
	if relaxed.WNS <= 0 {
		t.Errorf("WNS at relaxed period: %f", relaxed.WNS)
	}
	// A tight period makes everything violate.
	tight := Analyze(g, lib, 0.01)
	if tight.TNS >= 0 {
		t.Errorf("TNS at tight period: %f", tight.TNS)
	}
	if tight.WNS >= 0 {
		t.Errorf("WNS at tight period: %f", tight.WNS)
	}
	// TNS is the sum of negative slacks.
	sum := 0.0
	for _, s := range tight.Slack {
		if s < 0 {
			sum += s
		}
	}
	if diff := sum - tight.TNS; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("TNS %f != sum of negative slacks %f", tight.TNS, sum)
	}
}

func TestSlowestPathProperties(t *testing.T) {
	g := buildGraph(t, pipelineSrc, bog.SOG)
	r := Analyze(g, liberty.DefaultPseudoLib(), 1.0)
	for ep := range g.Endpoints {
		p := r.SlowestPath(g, ep)
		if len(p) == 0 {
			t.Fatal("empty path")
		}
		if p[len(p)-1] != g.Endpoints[ep].D {
			t.Fatal("path must end at endpoint D")
		}
		src := g.Nodes[p[0]]
		if src.NumFanin() != 0 {
			t.Fatalf("path must start at a source, got %v", src.Op)
		}
		// Consecutive nodes are connected.
		for i := 1; i < len(p); i++ {
			nd := g.Nodes[p[i]]
			ok := false
			for j := 0; j < nd.NumFanin(); j++ {
				if nd.Fanin[j] == p[i-1] {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("path edge %d->%d not in graph", p[i-1], p[i])
			}
		}
		// Arrival is non-decreasing along the path.
		for i := 1; i < len(p); i++ {
			if r.Arrival[p[i]] < r.Arrival[p[i-1]] {
				t.Fatal("arrival decreases along slowest path")
			}
		}
	}
}

func TestRandomPathsValid(t *testing.T) {
	g := buildGraph(t, pipelineSrc, bog.SOG)
	r := Analyze(g, liberty.DefaultPseudoLib(), 1.0)
	rng := rand.New(rand.NewSource(7))
	for ep := 0; ep < len(g.Endpoints); ep += 3 {
		paths := r.SamplePaths(g, ep, 8, rng)
		if len(paths) == 0 {
			t.Fatal("no paths")
		}
		for _, p := range paths {
			if p[len(p)-1] != g.Endpoints[ep].D {
				t.Fatal("sampled path does not end at endpoint")
			}
			if g.Nodes[p[0]].NumFanin() != 0 {
				t.Fatal("sampled path does not start at a source")
			}
		}
		// First path is the slowest path.
		sp := r.SlowestPath(g, ep)
		if len(paths[0]) != len(sp) {
			t.Error("first sample must be the slowest path")
		}
	}
}

func TestInputCone(t *testing.T) {
	g := buildGraph(t, pipelineSrc, bog.SOG)
	// Find an s3 endpoint: its cone must include both s1 and s2 registers.
	w := NewConeWalker(g)
	for ep, e := range g.Endpoints {
		if e.Ref.Signal != "s3" || e.Ref.Bit != 7 {
			continue
		}
		info := w.InputCone(ep)
		if info.DrivingRegs < 8 {
			t.Errorf("s3[7] cone driving regs = %d, want >= 8", info.DrivingRegs)
		}
		if info.Nodes <= 0 {
			t.Errorf("cone nodes = %d", info.Nodes)
		}
		return
	}
	t.Fatal("no s3[7] endpoint found")
}

func TestVariantTimingDiffers(t *testing.T) {
	// The same design timed under different representations must produce
	// different (but correlated) arrival profiles: AIG decomposition has
	// more, cheaper levels.
	lib := liberty.DefaultPseudoLib()
	gs := buildGraph(t, pipelineSrc, bog.SOG)
	ga := buildGraph(t, pipelineSrc, bog.AIG)
	rs := Analyze(gs, lib, 1.0)
	ra := Analyze(ga, lib, 1.0)
	var maxS, maxA float64
	for i := range rs.EndpointAT {
		if rs.EndpointAT[i] > maxS {
			maxS = rs.EndpointAT[i]
		}
	}
	for i := range ra.EndpointAT {
		if ra.EndpointAT[i] > maxA {
			maxA = ra.EndpointAT[i]
		}
	}
	if maxS == maxA {
		t.Error("SOG and AIG pseudo-STA identical; expected different profiles")
	}
}

func TestSampleCount(t *testing.T) {
	if got := SampleCount(0, 2, 16); got != 2 {
		t.Errorf("min clamp: %d", got)
	}
	if got := SampleCount(100, 2, 16); got != 16 {
		t.Errorf("max clamp: %d", got)
	}
	if got := SampleCount(12, 2, 16); got != 6 {
		t.Errorf("mid: %d", got)
	}
}
