package bog

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"rtltimer/internal/designs"
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

// buildVariants builds every BOG variant of a design.
func buildVariants(t *testing.T, d *elab.Design) map[Variant]*Graph {
	t.Helper()
	graphs := make(map[Variant]*Graph, NumVariants)
	for _, v := range Variants() {
		g, err := Build(d, v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		graphs[v] = g
	}
	return graphs
}

// crossCheck simulates the word-level design and every BOG variant side by
// side on random stimulus and compares all register contents each cycle.
func crossCheck(t *testing.T, src string, inputs []struct {
	name  string
	width int
}, cycles int, seed int64) {
	t.Helper()
	d := mustDesign(t, src)
	graphs := buildVariants(t, d)
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
		for _, sig := range d.Signals {
			if !sig.IsReg {
				continue
			}
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

const datapathSrc = `
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

func TestBitblastDatapath(t *testing.T) {
	crossCheck(t, datapathSrc, []struct {
		name  string
		width int
	}{{"rst", 1}, {"a", 8}, {"b", 8}, {"op", 3}}, 50, 1)
}

const comparisonsSrc = `
module cmp(input clk, input [7:0] a, input [7:0] b, output [5:0] out);
  reg [5:0] r;
  always @(posedge clk)
    r <= {a < b, a <= b, a > b, a >= b, a == b, a != b};
  assign out = r;
endmodule`

func TestBitblastComparisons(t *testing.T) {
	crossCheck(t, comparisonsSrc, []struct {
		name  string
		width int
	}{{"a", 8}, {"b", 8}}, 60, 2)
}

const reductionsSrc = `
module red(input clk, input [9:0] a, input [9:0] b, output [6:0] out);
  reg [6:0] r;
  always @(posedge clk)
    r <= {&a, |a, ^a, ~^a, a && b, a || b, !a};
  assign out = r;
endmodule`

func TestBitblastReductions(t *testing.T) {
	crossCheck(t, reductionsSrc, []struct {
		name  string
		width int
	}{{"a", 10}, {"b", 10}}, 60, 3)
}

const wideMixedSrc = `
module mix(input clk, input [15:0] x, input [15:0] y, input s, output [15:0] out);
  reg [15:0] acc;
  wire [15:0] t1 = s ? x + y : x - y;
  wire [15:0] t2 = {x[7:0], y[15:8]};
  wire [15:0] t3 = {4{x[3:0]}} ~^ y;
  always @(posedge clk)
    acc <= t1 ^ t2 ^ t3 ^ (acc >> 1);
  assign out = acc;
endmodule`

func TestBitblastWideMixed(t *testing.T) {
	crossCheck(t, wideMixedSrc, []struct {
		name  string
		width int
	}{{"x", 16}, {"y", 16}, {"s", 1}}, 50, 4)
}

const negAndSubSrc = `
module ns(input clk, input [7:0] a, output [7:0] out);
  reg [7:0] r;
  always @(posedge clk)
    r <= -a;
  assign out = r;
endmodule`

func TestBitblastNegAndSub(t *testing.T) {
	crossCheck(t, negAndSubSrc, []struct {
		name  string
		width int
	}{{"a", 8}}, 30, 5)
}

const hugeConstShiftSrc = `
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

// TestBitblastHugeConstShift: a constant shift amount of 2^63 or more
// must clear every bit in both directions, not wrap to a negative shift
// the other way; amounts w and w-1 pin the boundary of the in-range case.
func TestBitblastHugeConstShift(t *testing.T) {
	crossCheck(t, hugeConstShiftSrc, []struct {
		name  string
		width int
	}{{"a", 8}}, 30, 6)
}

// TestNodeBound: Build appends no more nodes than nodeBound allows, on
// every suite design and on the Verilog of the TestBitblast* tests, which
// reach the word ops the suite does not, in each variant. The suite's
// summed bound stays within 3x its summed nodes: Build reserves the bound,
// so a looser one would allocate that much more on every cold build.
func TestNodeBound(t *testing.T) {
	reached := map[elab.OpKind]bool{}
	check := func(name string, d *elab.Design) (nodes, bound int) {
		t.Helper()
		for i := range d.Nodes {
			reached[d.Nodes[i].Kind] = true
		}
		for _, v := range Variants() {
			g, err := Build(d, v)
			if err != nil {
				t.Fatalf("%s %v: %v", name, v, err)
			}
			b := nodeBound(d, v)
			if len(g.Nodes) > b {
				t.Errorf("%s %v: built %d nodes, bound %d", name, v, len(g.Nodes), b)
			}
			nodes += len(g.Nodes)
			bound += b
		}
		return nodes, bound
	}
	for _, src := range []string{datapathSrc, comparisonsSrc, reductionsSrc, wideMixedSrc, negAndSubSrc, hugeConstShiftSrc} {
		d := mustDesign(t, src)
		check(d.Name, d)
	}
	var nodes, bound int
	for _, spec := range designs.All() {
		n, b := check(spec.Name, mustDesign(t, designs.Generate(spec)))
		nodes += n
		bound += b
	}
	if bound > 3*nodes {
		t.Errorf("suite bound %d is %.2fx its %d built nodes, over 3x", bound, float64(bound)/float64(nodes), nodes)
	}
	for k := elab.OpConst; k <= elab.OpSlice; k++ {
		if !reached[k] {
			t.Errorf("no design reaches word op %v", k)
		}
	}
}

// TestGateBound: gateBound holds each rewriting constructor's worst case
// exactly. OrOf, XorOf and MuxOf run over every combination of constants,
// inputs and complemented inputs, each on a fresh graph holding only its
// operands, so nothing dedups that the operands do not share. None
// appends more than gateBound's count, and some combination appends that
// many. XnorOf against a constant, which nodeBound prices as one NOT,
// appends at most one node.
func TestGateBound(t *testing.T) {
	const kinds = 8 // 0, 1, then x0, ~x0, x1, ~x1, x2, ~x2
	fresh := func(v Variant, combo int) (*Builder, [3]NodeID) {
		g := NewBuilder("gates", v)
		var x, ops [3]NodeID
		for i := range x {
			x[i] = g.NewInput(g.AddSigName(fmt.Sprintf("x%d", i)), 0)
		}
		for j := range ops {
			switch o := combo % kinds; {
			case o < 2:
				ops[j] = NodeID(o) // Zero, One
			case o%2 == 0:
				ops[j] = x[o/2-1]
			default:
				ops[j] = g.NotOf(x[o/2-1])
			}
			combo /= kinds
		}
		return g, ops
	}
	for _, v := range Variants() {
		var worst [3]int
		for combo := 0; combo < kinds*kinds*kinds; combo++ {
			for k := range worst {
				g, ops := fresh(v, combo)
				before := len(g.Nodes)
				construct(g, 2+k, ops[0], ops[1], ops[2]) // OrOf, XorOf, MuxOf
				worst[k] = max(worst[k], len(g.Nodes)-before)
			}
			if g, ops := fresh(v, combo); ops[1] == g.Zero() || ops[1] == g.One() {
				before := len(g.Nodes)
				if g.XnorOf(ops[0], ops[1]); len(g.Nodes) > before+1 {
					t.Errorf("%v: XnorOf(%d, %d) appended %d nodes, over one", v, ops[0], ops[1], len(g.Nodes)-before)
				}
			}
		}
		want := gateBound[v]
		if worst != [3]int{want.or, want.xor, want.mux} {
			t.Errorf("%v: OrOf, XorOf and MuxOf append at most %v nodes, gateBound says %v", v, worst, want)
		}
	}
}

// TestBuildRefusesNodeIDOverflow: a design whose node bound exceeds what
// an int32 NodeID addresses is refused with an error naming the bound,
// before anything is blasted. The design is built directly: 2^17 64-bit
// multipliers, each bound at over 22,000 nodes in every variant. It opens
// with an unsupported node, so a Build that blasted before checking would
// fail on that node at once instead of appending billions of nodes.
func TestBuildRefusesNodeIDOverflow(t *testing.T) {
	d := &elab.Design{
		Name:    "muls",
		Signals: []elab.Signal{{Name: "a", Width: 64, IsInput: true}},
		Nodes: []elab.Node{
			{Kind: elab.OpKind(255), Width: 1},
			{Kind: elab.OpInput, Width: 64, Sig: 0},
		},
	}
	square := []elab.NodeID{1, 1}
	for range 1 << 17 {
		d.Nodes = append(d.Nodes, elab.Node{Kind: elab.OpMul, Width: 64, Args: square})
	}
	for _, v := range Variants() {
		bound := nodeBound(d, v)
		if bound <= math.MaxInt32 {
			t.Fatalf("%v: bound %d fits a NodeID; the design needs more multipliers", v, bound)
		}
		g, err := Build(d, v)
		if g != nil || err == nil || !strings.Contains(err.Error(), strconv.Itoa(bound)) {
			t.Errorf("%v: Build = %v, %v; want an error naming the bound %d", v, g, err, bound)
		}
	}
}

// TestReservationCap: Build reserves the bound and a table the bound's
// hashed nodes fill to at most three quarters, both capped at
// maxReservedNodes however loose the bound.
func TestReservationCap(t *testing.T) {
	for _, c := range []struct{ bound, hashed, nodes, slots int }{
		{2, 0, 2, minIndexSlots},
		{100, 48, 100, 64},
		{100, 49, 100, 128},
		{maxReservedNodes, 3 * maxReservedNodes / 4, maxReservedNodes, maxReservedNodes},
		{math.MaxInt32, math.MaxInt32, maxReservedNodes, 2 * maxReservedNodes},
	} {
		if nodes, slots := reservation(c.bound, c.hashed); nodes != c.nodes || slots != c.slots {
			t.Errorf("reservation(%d, %d) = %d nodes, %d slots; want %d, %d", c.bound, c.hashed, nodes, slots, c.nodes, c.slots)
		}
	}
}

func TestVariantAlphabets(t *testing.T) {
	src := `
module v(input clk, input [7:0] a, input [7:0] b, input s, output [7:0] out);
  reg [7:0] r;
  always @(posedge clk)
    r <= s ? (a ^ b) : (a | b);
  assign out = r;
endmodule`
	graphs := buildVariants(t, mustDesign(t, src))
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
	g := NewBuilder("t", SOG)
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
