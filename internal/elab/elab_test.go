package elab

import (
	"fmt"
	"math/bits"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"rtltimer/internal/verilog"
)

func mustElab(t *testing.T, src string) *Design {
	t.Helper()
	parsed, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Elaborate(parsed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestElabCombinational(t *testing.T) {
	d := mustElab(t, `
module m(input [7:0] a, input [7:0] b, output [7:0] y);
  assign y = (a & b) | (a ^ b);
endmodule`)
	if len(d.Regs) != 0 {
		t.Errorf("regs: %d", len(d.Regs))
	}
	sim := NewSimulator(d)
	if err := sim.SetInput("a", 0xA5); err != nil {
		t.Fatal(err)
	}
	if err := sim.SetInput("b", 0x0F); err != nil {
		t.Fatal(err)
	}
	got, err := sim.Output("y")
	if err != nil {
		t.Fatal(err)
	}
	want := uint64((0xA5 & 0x0F) | (0xA5 ^ 0x0F))
	if got != want {
		t.Errorf("y = %#x, want %#x", got, want)
	}
}

func TestElabArithmetic(t *testing.T) {
	d := mustElab(t, `
module m(input [7:0] a, input [7:0] b, output [7:0] sum, output [7:0] diff,
         output [7:0] prod, output lt, output eq);
  assign sum = a + b;
  assign diff = a - b;
  assign prod = a * b;
  assign lt = a < b;
  assign eq = a == b;
endmodule`)
	sim := NewSimulator(d)
	cases := []struct{ a, b uint64 }{{3, 5}, {200, 100}, {255, 255}, {0, 0}, {17, 4}}
	for _, c := range cases {
		sim.SetInput("a", c.a)
		sim.SetInput("b", c.b)
		check := func(name string, want uint64) {
			got, err := sim.Output(name)
			if err != nil {
				t.Fatal(err)
			}
			if got != want&0xFF {
				t.Errorf("a=%d b=%d: %s = %d, want %d", c.a, c.b, name, got, want&0xFF)
			}
		}
		check("sum", c.a+c.b)
		check("diff", c.a-c.b)
		check("prod", c.a*c.b)
		if got, _ := sim.Output("lt"); got != b2u(c.a < c.b) {
			t.Errorf("a=%d b=%d: lt = %d", c.a, c.b, got)
		}
		if got, _ := sim.Output("eq"); got != b2u(c.a == c.b) {
			t.Errorf("a=%d b=%d: eq = %d", c.a, c.b, got)
		}
	}
}

func TestElabRegisterPipeline(t *testing.T) {
	// b must observe the OLD a (nonblocking semantics).
	d := mustElab(t, `
module m(input clk, input [3:0] in, output [3:0] out);
  reg [3:0] a, b;
  always @(posedge clk) begin
    a <= in;
    b <= a;
  end
  assign out = b;
endmodule`)
	if len(d.Regs) != 2 {
		t.Fatalf("regs: %d", len(d.Regs))
	}
	sim := NewSimulator(d)
	sim.SetInput("in", 7)
	sim.Step()
	sim.SetInput("in", 3)
	sim.Step()
	if v, _ := sim.Reg("a"); v != 3 {
		t.Errorf("a = %d, want 3", v)
	}
	if v, _ := sim.Reg("b"); v != 7 {
		t.Errorf("b = %d, want 7 (old a)", v)
	}
}

func TestElabBlockingInSequential(t *testing.T) {
	// With blocking assigns, t is visible to the next statement.
	d := mustElab(t, `
module m(input clk, input [3:0] in, output [3:0] out);
  reg [3:0] t, r;
  always @(posedge clk) begin
    t = in + 1;
    r <= t + 1;
  end
  assign out = r;
endmodule`)
	sim := NewSimulator(d)
	sim.SetInput("in", 5)
	sim.Step()
	if v, _ := sim.Reg("r"); v != 7 {
		t.Errorf("r = %d, want 7", v)
	}
}

func TestElabSyncReset(t *testing.T) {
	d := mustElab(t, `
module m(input clk, input rst, input [3:0] in, output [3:0] out);
  reg [3:0] r;
  always @(posedge clk) begin
    if (rst) r <= 4'd0;
    else r <= in;
  end
  assign out = r;
endmodule`)
	sim := NewSimulator(d)
	sim.SetInput("rst", 0)
	sim.SetInput("in", 9)
	sim.Step()
	if v, _ := sim.Reg("r"); v != 9 {
		t.Errorf("r = %d, want 9", v)
	}
	sim.SetInput("rst", 1)
	sim.Step()
	if v, _ := sim.Reg("r"); v != 0 {
		t.Errorf("r = %d after reset, want 0", v)
	}
	if len(d.Clocks) != 1 || d.Clocks[0] != "clk" {
		t.Errorf("clocks: %v", d.Clocks)
	}
}

func TestElabAsyncResetTreatedSync(t *testing.T) {
	d := mustElab(t, `
module m(input clk, input rst, input [3:0] in, output [3:0] out);
  reg [3:0] r;
  always @(posedge clk or posedge rst) begin
    if (rst) r <= 4'd0;
    else r <= in;
  end
  assign out = r;
endmodule`)
	// rst is read in the body, so clk must be chosen as the clock.
	if len(d.Regs) != 1 || d.Regs[0].Clock != "clk" {
		t.Fatalf("regs: %+v", d.Regs)
	}
}

func TestElabCaseStatement(t *testing.T) {
	d := mustElab(t, `
module m(input [1:0] op, input [7:0] a, input [7:0] b, output reg [7:0] y);
  always @(*) begin
    case (op)
      2'b00: y = a + b;
      2'b01: y = a - b;
      2'b10: y = a & b;
      default: y = a ^ b;
    endcase
  end
endmodule`)
	sim := NewSimulator(d)
	sim.SetInput("a", 12)
	sim.SetInput("b", 10)
	wants := []uint64{22, 2, 8, 6}
	for op, want := range wants {
		sim.SetInput("op", uint64(op))
		got, err := sim.Output("y")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("op=%d: y = %d, want %d", op, got, want)
		}
	}
}

func TestElabIfHoldSemantics(t *testing.T) {
	// Register keeps its value when the enable is low.
	d := mustElab(t, `
module m(input clk, input en, input [3:0] in, output [3:0] out);
  reg [3:0] r;
  always @(posedge clk)
    if (en) r <= in;
  assign out = r;
endmodule`)
	sim := NewSimulator(d)
	sim.SetInput("en", 1)
	sim.SetInput("in", 5)
	sim.Step()
	sim.SetInput("en", 0)
	sim.SetInput("in", 12)
	sim.Step()
	if v, _ := sim.Reg("r"); v != 5 {
		t.Errorf("r = %d, want held 5", v)
	}
}

func TestElabPartSelectAssign(t *testing.T) {
	d := mustElab(t, `
module m(input clk, input [3:0] hi, input [3:0] lo, output [7:0] out);
  reg [7:0] r;
  always @(posedge clk) begin
    r[7:4] <= hi;
    r[3:0] <= lo;
  end
  assign out = r;
endmodule`)
	sim := NewSimulator(d)
	sim.SetInput("hi", 0xA)
	sim.SetInput("lo", 0x5)
	sim.Step()
	if v, _ := sim.Reg("r"); v != 0xA5 {
		t.Errorf("r = %#x, want 0xA5", v)
	}
}

func TestElabConcatLHS(t *testing.T) {
	d := mustElab(t, `
module m(input [3:0] a, input [3:0] b, output [4:0] s, output c);
  wire [4:0] sum;
  assign sum = a + b;
  assign {c, s[3:0]} = sum;
  assign s[4] = 1'b0;
endmodule`)
	sim := NewSimulator(d)
	sim.SetInput("a", 9)
	sim.SetInput("b", 8)
	if v, _ := sim.Output("c"); v != 1 {
		t.Errorf("c = %d, want 1", v)
	}
	if v, _ := sim.Output("s"); v != 1 {
		t.Errorf("s = %d, want 1", v)
	}
}

func TestElabHierarchyWithParams(t *testing.T) {
	d := mustElab(t, `
module addsub #(parameter WIDTH = 4) (
  input [WIDTH-1:0] x, input [WIDTH-1:0] y, input sel,
  output [WIDTH-1:0] z);
  assign z = sel ? x - y : x + y;
endmodule

module top(input [7:0] a, input [7:0] b, input s, output [7:0] o);
  addsub #(.WIDTH(8)) u0 (.x(a), .y(b), .sel(s), .z(o));
endmodule`)
	if _, ok := d.SignalID("u0.z"); !ok {
		t.Error("flattened signal u0.z missing")
	}
	sim := NewSimulator(d)
	sim.SetInput("a", 100)
	sim.SetInput("b", 30)
	sim.SetInput("s", 0)
	if v, _ := sim.Output("o"); v != 130 {
		t.Errorf("o = %d, want 130", v)
	}
	sim.SetInput("s", 1)
	if v, _ := sim.Output("o"); v != 70 {
		t.Errorf("o = %d, want 70", v)
	}
}

func TestElabShifts(t *testing.T) {
	d := mustElab(t, `
module m(input [7:0] a, input [2:0] n, output [7:0] l, output [7:0] r,
         output [7:0] lc, output [7:0] rc);
  assign l = a << n;
  assign r = a >> n;
  assign lc = a << 3;
  assign rc = a >> 2;
endmodule`)
	sim := NewSimulator(d)
	sim.SetInput("a", 0x96)
	sim.SetInput("n", 5)
	if v, _ := sim.Output("l"); v != (0x96<<5)&0xFF {
		t.Errorf("l = %#x", v)
	}
	if v, _ := sim.Output("r"); v != 0x96>>5 {
		t.Errorf("r = %#x", v)
	}
	if v, _ := sim.Output("lc"); v != (0x96<<3)&0xFF {
		t.Errorf("lc = %#x", v)
	}
	if v, _ := sim.Output("rc"); v != 0x96>>2 {
		t.Errorf("rc = %#x", v)
	}
}

func TestElabReductionsAndLogic(t *testing.T) {
	d := mustElab(t, `
module m(input [3:0] a, input [3:0] b, output ra, output ro, output rx,
         output la, output lo, output ln);
  assign ra = &a;
  assign ro = |a;
  assign rx = ^a;
  assign la = a && b;
  assign lo = a || b;
  assign ln = !a;
endmodule`)
	sim := NewSimulator(d)
	for _, c := range []struct{ a, b uint64 }{{0, 0}, {0xF, 3}, {5, 0}, {0xF, 0}} {
		sim.SetInput("a", c.a)
		sim.SetInput("b", c.b)
		if v, _ := sim.Output("ra"); v != b2u(c.a == 0xF) {
			t.Errorf("a=%x: ra=%d", c.a, v)
		}
		if v, _ := sim.Output("ro"); v != b2u(c.a != 0) {
			t.Errorf("a=%x: ro=%d", c.a, v)
		}
		popcnt := uint64(0)
		for x := c.a; x != 0; x &= x - 1 {
			popcnt++
		}
		if v, _ := sim.Output("rx"); v != popcnt&1 {
			t.Errorf("a=%x: rx=%d", c.a, v)
		}
		if v, _ := sim.Output("la"); v != b2u(c.a != 0 && c.b != 0) {
			t.Errorf("la: a=%x b=%x: %d", c.a, c.b, v)
		}
		if v, _ := sim.Output("lo"); v != b2u(c.a != 0 || c.b != 0) {
			t.Errorf("lo: a=%x b=%x: %d", c.a, c.b, v)
		}
		if v, _ := sim.Output("ln"); v != b2u(c.a == 0) {
			t.Errorf("ln: a=%x: %d", c.a, v)
		}
	}
}

func TestElabErrors(t *testing.T) {
	bad := map[string]string{
		"comb loop": `module m(output y); wire a, b; assign a = b; assign b = a; assign y = a; endmodule`,
		"multi drive": `module m(input a, input b, output y);
			assign y = a; assign y = b; endmodule`,
		"drive input": `module m(input a); assign a = 1'b1; endmodule`,
		"reg and assign": `module m(input clk, input a, output y);
			reg y; always @(posedge clk) y <= a; assign y = a; endmodule`,
		"multi always": `module m(input clk, input a);
			reg r; always @(posedge clk) r <= a; always @(posedge clk) r <= ~a; endmodule`,
		"unknown module": `module m(input a); foo u0 (.x(a)); endmodule`,
		"wide signal":    `module m(input [127:0] a, output y); assign y = a[0]; endmodule`,
		"non-pow2 div":   `module m(input [7:0] a, output [7:0] y); assign y = a / 3; endmodule`,
		// hi-lo+1 overflows int64 here, and the wrapped width must not
		// pass the 64-bit check.
		"width overflow":       `module m(input [0:9223372036854775807] a, output y); assign y = 1'b0; endmodule`,
		"too-wide replication": `module m(input a, output y); assign y = {64{{64{{64{{64{{64{{64{a}}}}}}}}}}}}; endmodule`,
		// Each malformed target, as a continuous and as a procedural
		// assignment: both go through one target splitter.
		"undeclared target (assign)":        `module m(input a, output y); assign q = a; assign y = a; endmodule`,
		"undeclared target (always)":        `module m(input a, output reg y); always @(*) begin q = a; y = a; end endmodule`,
		"part select out of range (assign)": `module m(input [1:0] a, output [7:0] y); assign y[9:8] = a; endmodule`,
		"part select out of range (always)": `module m(input [1:0] a, output reg [7:0] y);
			always @(*) begin y = 8'd0; y[9:8] = a; end endmodule`,
		"variable bit select (assign)": `module m(input a, input [2:0] s, output [7:0] y); assign y[s] = a; endmodule`,
		"variable bit select (always)": `module m(input a, input [2:0] s, output reg [7:0] y);
			always @(*) begin y = 8'd0; y[s] = a; end endmodule`,
		"constant in concatenation (assign)": `module m(input [7:0] a, output [6:0] y); assign {y, 1'b0} = a; endmodule`,
		"constant in concatenation (always)": `module m(input [7:0] a, output reg [6:0] y); always @(*) {y, 1'b0} = a; endmodule`,
	}
	for name, src := range bad {
		parsed, err := verilog.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if _, err := Elaborate(parsed); err == nil {
			t.Errorf("%s: expected elaboration error", name)
		}
	}
}

func TestElabUndrivenWarns(t *testing.T) {
	d := mustElab(t, `module m(input a, output y); wire w; assign y = a & w; endmodule`)
	found := false
	for _, w := range d.Warnings {
		if strings.Contains(w, "no driver") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected undriven warning, got %v", d.Warnings)
	}
}

func TestElabStats(t *testing.T) {
	d := mustElab(t, `
module m(input clk, input [7:0] in, output [7:0] out);
  reg [7:0] r;
  always @(posedge clk) r <= in;
  assign out = r;
endmodule`)
	st := d.Stats()
	if st.Regs != 1 || st.RegBits != 8 || st.Inputs != 2 || st.Outputs != 1 {
		t.Errorf("stats: %+v", st)
	}
	if len(d.SeqSignals()) != 1 {
		t.Errorf("seq signals: %v", d.SeqSignals())
	}
}

func TestElabQuickAddConsistency(t *testing.T) {
	// Property: the elaborated adder matches Go addition for all inputs.
	d := mustElab(t, `
module m(input [15:0] a, input [15:0] b, output [15:0] y);
  assign y = a + b;
endmodule`)
	sim := NewSimulator(d)
	f := func(a, b uint16) bool {
		sim.SetInput("a", uint64(a))
		sim.SetInput("b", uint64(b))
		got, err := sim.Output("y")
		return err == nil && got == uint64(a+b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestElabQuickMuxTree(t *testing.T) {
	d := mustElab(t, `
module m(input [7:0] a, input [7:0] b, input [7:0] c, input [7:0] d,
         input [1:0] s, output reg [7:0] y);
  always @(*) begin
    case (s)
      2'd0: y = a;
      2'd1: y = b;
      2'd2: y = c;
      default: y = d;
    endcase
  end
endmodule`)
	sim := NewSimulator(d)
	f := func(a, b, c, dd uint8, s uint8) bool {
		sim.SetInput("a", uint64(a))
		sim.SetInput("b", uint64(b))
		sim.SetInput("c", uint64(c))
		sim.SetInput("d", uint64(dd))
		sim.SetInput("s", uint64(s%4))
		got, err := sim.Output("y")
		if err != nil {
			return false
		}
		want := [4]uint8{a, b, c, dd}[s%4]
		return got == uint64(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// elabWithin parses and elaborates src, failing the test when elaboration
// takes longer than the guard instead of hanging the run.
func elabWithin(t *testing.T, src string, guard time.Duration) (*Design, error) {
	t.Helper()
	parsed, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		d   *Design
		err error
	}
	done := make(chan result, 1)
	go func() {
		d, err := Elaborate(parsed)
		done <- result{d, err}
	}()
	select {
	case r := <-done:
		return r.d, r.err
	case <-time.After(guard):
		t.Fatalf("elaboration still running after %v", guard)
		return nil, nil
	}
}

// TestElabSharedValuesLinear: symbolic execution shares subtrees (a merge
// puts the old value under both arms, a part write puts it under both
// slices), so each statement below doubles the tree the value unfolds
// to. Elaboration must build each shared subtree once: walking it once
// per path takes time exponential in the statement count.
func TestElabSharedValuesLinear(t *testing.T) {
	const k = 64
	var ifs, parts strings.Builder
	ifs.WriteString("module m(input [3:0] c, input [7:0] a, output reg [7:0] x);\nalways @(*) begin\n  x = a;\n")
	parts.WriteString("module m(input [7:0] a, output reg [7:0] x);\nalways @(*) begin\n  x = 8'd0;\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&ifs, "  if (c[%d]) x = x + 1;\n", i%4)
		fmt.Fprintf(&parts, "  x[%d] = a[%d];\n", i%8, (3*i+1)%8)
	}
	ifs.WriteString("end\nendmodule\n")
	parts.WriteString("end\nendmodule\n")

	d, err := elabWithin(t, ifs.String(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(d)
	sim.SetInput("a", 200)
	for c := uint64(0); c < 16; c++ {
		sim.SetInput("c", c)
		want := uint64(uint8(200 + k/4*bits.OnesCount64(c)))
		if got, err := sim.Output("x"); err != nil || got != want {
			t.Errorf("%d ifs, c=%04b: x = %d, %v; want %d", k, c, got, err, want)
		}
	}

	// A constant index the blocking assignments double 64 times: the
	// constant folding of the index must not unfold the shared sums.
	d, err = elabWithin(t, "module m(input [7:0] a, output reg y);\nreg [63:0] t;\nalways @(*) begin\n  t = 1;\n"+
		strings.Repeat("  t = t + t;\n", k)+"  y = a[t - 64'hFFFFFFFFFFFFFFFD];\nend\nendmodule\n", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sim = NewSimulator(d)
	for _, a := range []uint64{0x08, 0xF7} {
		sim.SetInput("a", a)
		if got, err := sim.Output("y"); err != nil || got != a>>3&1 {
			t.Errorf("a[2^64 - (2^64 - 3)], a=%#x: y = %d, %v; want %d", a, got, err, a>>3&1)
		}
	}

	d, err = elabWithin(t, parts.String(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sim = NewSimulator(d)
	for _, a := range []uint64{0x00, 0xA5, 0x3C, 0xFF, 0x81} {
		want := uint64(0)
		for i := 0; i < k; i++ {
			bit := a >> ((3*i + 1) % 8) & 1
			want = want&^(1<<(i%8)) | bit<<(i%8)
		}
		sim.SetInput("a", a)
		if got, err := sim.Output("x"); err != nil || got != want {
			t.Errorf("%d part writes, a=%#x: x = %#x, %v; want %#x", k, a, got, err, want)
		}
	}
}

// TestElabDeepChainIsAnError: each of 100,000 statements `x = x + 1;`
// nests one more addition in x's value. Building it recurses once per
// level, and an unbounded build overflows the test's 32 MB stack, which
// is fatal in Go; it must be an error naming verilog.MaxNesting instead.
func TestElabDeepChainIsAnError(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(32 << 20))
	src := "module m(input [7:0] a, output reg [7:0] x);\nalways @(*) begin\n  x = a;\n" +
		strings.Repeat("  x = x + 1;\n", 100000) + "end\nendmodule\n"
	_, err := elabWithin(t, src, 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(verilog.MaxNesting)) {
		t.Fatalf("got %v, want an error naming the bound %d", err, verilog.MaxNesting)
	}
}

// TestElabInstanceFanout: hierarchy depth alone does not bound the
// instances a design inlines. Ten modules that each instantiate the next
// ten times ask for 10^10 in 4 KB of source; flattening them must stop at
// the instance cap with an error naming it.
func TestElabInstanceFanout(t *testing.T) {
	_, err := elabWithin(t, fanoutSource(10, 10), 10*time.Second)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxInstances)) {
		t.Fatalf("got %v, want an error naming the cap %d", err, maxInstances)
	}
}

// fanoutSource returns levels modules, each instantiating the next one
// fanout times; the last is a one-bit buffer.
func fanoutSource(levels, fanout int) string {
	var b strings.Builder
	for l := 0; l < levels; l++ {
		fmt.Fprintf(&b, "module m%d(input a, output [%d:0] y);\n", l, fanout-1)
		for i := 0; i < fanout; i++ {
			if l == levels-1 {
				fmt.Fprintf(&b, "  assign y[%d] = a;\n", i)
				continue
			}
			fmt.Fprintf(&b, "  wire [%d:0] w%d;\n  m%d u%d (.a(a), .y(w%d));\n  assign y[%d] = ^w%d;\n", fanout-1, i, l+1, i, i, i, i)
		}
		b.WriteString("endmodule\n")
	}
	return b.String()
}

// TestElabConcatTargetNamesOneSignalTwice: a concatenated target that
// names one register twice keeps both writes, as the two-statement form
// and the continuous form do: expanding every part against the value
// from before the statement would let the last part overwrite the first.
func TestElabConcatTargetNamesOneSignalTwice(t *testing.T) {
	for _, op := range []string{"<=", "="} {
		d := mustElab(t, `
module m(input clk, input [7:0] x, output [7:0] y);
  reg [7:0] r;
  always @(posedge clk) {r[3:0], r[7:4]} `+op+` x;
  assign y = r;
endmodule`)
		sim := NewSimulator(d)
		sim.SetInput("x", 0xA5)
		sim.Step()
		if v, _ := sim.Reg("r"); v != 0x5A {
			t.Errorf("{r[3:0], r[7:4]} %s 8'hA5: r = %#x, want 0x5a", op, v)
		}
	}
	d := mustElab(t, `
module m(input [7:0] x, output [7:0] y);
  assign {y[3:0], y[7:4]} = x;
endmodule`)
	sim := NewSimulator(d)
	sim.SetInput("x", 0xA5)
	if v, _ := sim.Output("y"); v != 0x5A {
		t.Errorf("assign {y[3:0], y[7:4]} = 8'hA5: y = %#x, want 0x5a", v)
	}
}
