package bog

import (
	"math/rand"
	"testing"

	"rtltimer/internal/elab"
	"rtltimer/internal/verilog"
)

func mustDesign(t *testing.T, src string) *elab.Design {
	t.Helper()
	parsed, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := elab.Elaborate(parsed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// crossCheck simulates the word-level design and every BOG variant side by
// side on random stimulus and compares all register contents each cycle.
func crossCheck(t *testing.T, src string, inputs []struct {
	name  string
	width int
}, cycles int, seed int64) {
	t.Helper()
	d := mustDesign(t, src)
	graphs, err := BuildAll(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	wordSim := elab.NewSimulator(d)
	bitSims := map[Variant]*Simulator{}
	for v, g := range graphs {
		if err := g.Check(); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		bitSims[v] = NewSimulator(g)
	}
	for cycle := 0; cycle < cycles; cycle++ {
		for _, in := range inputs {
			val := rng.Uint64()
			if err := wordSim.SetInput(in.name, val); err != nil {
				t.Fatal(err)
			}
			for _, bs := range bitSims {
				bs.SetInputWord(in.name, val, in.width)
			}
		}
		wordSim.Step()
		for _, bs := range bitSims {
			bs.Step()
		}
		for _, sigID := range d.SeqSignals() {
			sig := d.Signals[sigID]
			want, _ := wordSim.Reg(sig.Name)
			for v, bs := range bitSims {
				got := bs.RegWord(sig.Name, sig.Width)
				if got != want {
					t.Fatalf("cycle %d, %v: reg %s = %#x, want %#x", cycle, v, sig.Name, got, want)
				}
			}
		}
	}
}

func TestBitblastDatapath(t *testing.T) {
	src := `
module dp(input clk, input rst, input [7:0] a, input [7:0] b, input [2:0] op,
          output [7:0] out);
  reg [7:0] acc;
  reg [7:0] res;
  always @(posedge clk) begin
    if (rst) begin
      acc <= 8'd0;
      res <= 8'd0;
    end else begin
      case (op)
        3'd0: acc <= a + b;
        3'd1: acc <= a - b;
        3'd2: acc <= a & b;
        3'd3: acc <= a | b;
        3'd4: acc <= a ^ b;
        3'd5: acc <= a * b;
        3'd6: acc <= a << b[2:0];
        default: acc <= a >> b[2:0];
      endcase
      res <= acc + 8'd1;
    end
  end
  assign out = res;
endmodule`
	crossCheck(t, src, []struct {
		name  string
		width int
	}{{"rst", 1}, {"a", 8}, {"b", 8}, {"op", 3}}, 50, 1)
}

func TestBitblastComparisons(t *testing.T) {
	src := `
module cmp(input clk, input [7:0] a, input [7:0] b, output [5:0] out);
  reg [5:0] r;
  always @(posedge clk)
    r <= {a < b, a <= b, a > b, a >= b, a == b, a != b};
  assign out = r;
endmodule`
	crossCheck(t, src, []struct {
		name  string
		width int
	}{{"a", 8}, {"b", 8}}, 60, 2)
}

func TestBitblastReductions(t *testing.T) {
	src := `
module red(input clk, input [9:0] a, input [9:0] b, output [5:0] out);
  reg [5:0] r;
  always @(posedge clk)
    r <= {&a, |a, ^a, a && b, a || b, !a};
  assign out = r;
endmodule`
	crossCheck(t, src, []struct {
		name  string
		width int
	}{{"a", 10}, {"b", 10}}, 60, 3)
}

func TestBitblastWideMixed(t *testing.T) {
	src := `
module mix(input clk, input [15:0] x, input [15:0] y, input s, output [15:0] out);
  reg [15:0] acc;
  wire [15:0] t1 = s ? x + y : x - y;
  wire [15:0] t2 = {x[7:0], y[15:8]};
  wire [15:0] t3 = {4{x[3:0]}};
  always @(posedge clk)
    acc <= t1 ^ t2 ^ t3 ^ (acc >> 1);
  assign out = acc;
endmodule`
	crossCheck(t, src, []struct {
		name  string
		width int
	}{{"x", 16}, {"y", 16}, {"s", 1}}, 50, 4)
}

func TestBitblastNegAndSub(t *testing.T) {
	src := `
module ns(input clk, input [7:0] a, output [7:0] out);
  reg [7:0] r;
  always @(posedge clk)
    r <= -a;
  assign out = r;
endmodule`
	crossCheck(t, src, []struct {
		name  string
		width int
	}{{"a", 8}}, 30, 5)
}

// TestBitblastHugeConstShift: a constant shift amount of 2^63 or more
// must clear every bit in both directions, not wrap to a negative shift
// the other way; amounts w and w-1 pin the boundary of the in-range case.
func TestBitblastHugeConstShift(t *testing.T) {
	src := `
module hs(input clk, input [7:0] a, output [7:0] out);
  reg [7:0] l0, l1, l2, l3, r0, r1, r2, r3;
  always @(posedge clk) begin
    l0 <= a << 64'h8000000000000000;
    l1 <= a << 64'hFFFFFFFFFFFFFFFF;
    l2 <= a << 4'd8;
    l3 <= a << 3'd7;
    r0 <= a >> 64'h8000000000000000;
    r1 <= a >> 64'hFFFFFFFFFFFFFFFF;
    r2 <= a >> 4'd8;
    r3 <= a >> 3'd7;
  end
  assign out = l0 ^ l1 ^ l2 ^ l3 ^ r0 ^ r1 ^ r2 ^ r3;
endmodule`
	crossCheck(t, src, []struct {
		name  string
		width int
	}{{"a", 8}}, 30, 6)
}

func TestVariantAlphabets(t *testing.T) {
	src := `
module v(input clk, input [7:0] a, input [7:0] b, input s, output [7:0] out);
  reg [7:0] r;
  always @(posedge clk)
    r <= s ? (a ^ b) : (a | b);
  assign out = r;
endmodule`
	d := mustDesign(t, src)
	graphs, err := BuildAll(d)
	if err != nil {
		t.Fatal(err)
	}
	// AIG must contain only AND/NOT operators.
	for i := range graphs[AIG].Nodes {
		op := graphs[AIG].Nodes[i].Op
		if op == Or || op == Xor || op == Mux {
			t.Fatalf("AIG contains %v", op)
		}
	}
	// XAG must not contain OR or MUX.
	for i := range graphs[XAG].Nodes {
		op := graphs[XAG].Nodes[i].Op
		if op == Or || op == Mux {
			t.Fatalf("XAG contains %v", op)
		}
	}
	// AIMG must not contain OR or XOR.
	for i := range graphs[AIMG].Nodes {
		op := graphs[AIMG].Nodes[i].Op
		if op == Or || op == Xor {
			t.Fatalf("AIMG contains %v", op)
		}
	}
	// All variants share the same endpoints.
	n := len(graphs[SOG].Endpoints)
	for v, g := range graphs {
		if len(g.Endpoints) != n {
			t.Errorf("%v: %d endpoints, want %d", v, len(g.Endpoints), n)
		}
	}
	// AIG decompositions are strictly larger than SOG for this design.
	if graphs[AIG].CombNodes() <= graphs[SOG].CombNodes() {
		t.Errorf("AIG (%d nodes) should be larger than SOG (%d)", graphs[AIG].CombNodes(), graphs[SOG].CombNodes())
	}
}

func TestGraphSimplifications(t *testing.T) {
	g := NewGraph("t", SOG)
	a := g.NewInput(g.AddSigName("a"), 0)
	bb := g.NewInput(g.AddSigName("b"), 0)
	if g.AndOf(a, g.Zero()) != g.Zero() {
		t.Error("a & 0 != 0")
	}
	if g.AndOf(a, g.One()) != a {
		t.Error("a & 1 != a")
	}
	if g.AndOf(a, a) != a {
		t.Error("a & a != a")
	}
	if g.AndOf(a, g.NotOf(a)) != g.Zero() {
		t.Error("a & ~a != 0")
	}
	if g.OrOf(a, g.One()) != g.One() {
		t.Error("a | 1 != 1")
	}
	if g.OrOf(a, g.NotOf(a)) != g.One() {
		t.Error("a | ~a != 1")
	}
	if g.XorOf(a, a) != g.Zero() {
		t.Error("a ^ a != 0")
	}
	if g.XorOf(a, g.Zero()) != a {
		t.Error("a ^ 0 != a")
	}
	if g.XorOf(a, g.One()) != g.NotOf(a) {
		t.Error("a ^ 1 != ~a")
	}
	if g.NotOf(g.NotOf(a)) != a {
		t.Error("~~a != a")
	}
	if g.MuxOf(g.One(), a, bb) != a {
		t.Error("mux(1,a,b) != a")
	}
	if g.MuxOf(g.Zero(), a, bb) != bb {
		t.Error("mux(0,a,b) != b")
	}
	if g.MuxOf(a, bb, bb) != bb {
		t.Error("mux(s,b,b) != b")
	}
	// Structural hashing: same AND twice yields the same node.
	x := g.AndOf(a, bb)
	y := g.AndOf(bb, a)
	if x != y {
		t.Error("structural hashing failed for commuted AND")
	}
}

func TestLevelsAndDepth(t *testing.T) {
	src := `
module lv(input clk, input [3:0] a, input [3:0] b, output [3:0] out);
  reg [3:0] r;
  always @(posedge clk)
    r <= a + b;
  assign out = r;
endmodule`
	d := mustDesign(t, src)
	g, err := Build(d, SOG)
	if err != nil {
		t.Fatal(err)
	}
	if g.Depth() < 3 {
		t.Errorf("adder depth %d, expected ripple-carry depth >= 3", g.Depth())
	}
	lv := g.Levels()
	for i := range g.Nodes {
		for j := 0; j < g.Nodes[i].NumFanin(); j++ {
			if lv[g.Nodes[i].Fanin[j]] >= lv[i] {
				t.Fatalf("level invariant broken at node %d", i)
			}
		}
	}
	fo := g.FanoutCounts()
	total := 0
	for _, f := range fo {
		total += int(f)
	}
	if total == 0 {
		t.Error("no fanout edges")
	}
}

func TestEndpointsNamed(t *testing.T) {
	src := `
module ep(input clk, input [1:0] a, output [1:0] o);
  reg [1:0] r;
  always @(posedge clk) r <= a;
  assign o = r ^ 2'b01;
endmodule`
	d := mustDesign(t, src)
	g, err := Build(d, SOG)
	if err != nil {
		t.Fatal(err)
	}
	regEPs, poEPs := 0, 0
	for _, ep := range g.Endpoints {
		if ep.IsPO {
			poEPs++
			if ep.Ref.Signal != "o" {
				t.Errorf("PO endpoint %v", ep.Ref)
			}
		} else {
			regEPs++
			if ep.Ref.Signal != "r" {
				t.Errorf("reg endpoint %v", ep.Ref)
			}
		}
	}
	if regEPs != 2 || poEPs != 2 {
		t.Errorf("endpoints: %d reg, %d po", regEPs, poEPs)
	}
}
