package verilog

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
)

const sampleALU = `
// Simple pipelined ALU used across the test suite.
module alu (
    input clk,
    input rst,
    input [7:0] a,
    input [7:0] b,
    input [1:0] op,
    output reg [7:0] y
);
  wire [7:0] sum = a + b;
  wire [7:0] diff = a - b;
  wire [7:0] band = a & b;
  wire [7:0] bxor = a ^ b;
  reg [7:0] stage;

  always @(*) begin
    case (op)
      2'b00: stage = sum;
      2'b01: stage = diff;
      2'b10: stage = band;
      default: stage = bxor;
    endcase
  end

  always @(posedge clk) begin
    if (rst)
      y <= 8'h00;
    else
      y <= stage;
  end
endmodule
`

// tokenize lexes the whole input, returning all tokens up to and including
// the EOF token.
func tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

func TestTokenizeBasics(t *testing.T) {
	toks, err := tokenize("module m; endmodule")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{TokModule, TokIdent, TokSemi, TokEndModule, TokEOF}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d (%v)", len(toks), len(want), toks)
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestTokenizeOperators(t *testing.T) {
	cases := map[string]TokenKind{
		"&&": TokLAnd, "||": TokLOr, "==": TokEq, "!=": TokNeq,
		"<<": TokShl, ">>": TokShr, "<=": TokNBAssign, ">=": TokGe,
		"~^": TokXnor, "^~": TokXnor, "===": TokCaseEq,
	}
	for src, want := range cases {
		toks, err := tokenize(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if toks[0].Kind != want {
			t.Errorf("%q: got %v, want %v", src, toks[0].Kind, want)
		}
	}
}

func TestTokenizeComments(t *testing.T) {
	toks, err := tokenize("a // line\n /* block\n comment */ b `define X 1\n c")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tk := range toks {
		if tk.Kind == TokIdent {
			names = append(names, tk.Text)
		}
	}
	if strings.Join(names, ",") != "a,b,c" {
		t.Errorf("got idents %v", names)
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, src := range []string{"/* unterminated", "\"unterminated", "$"} {
		if _, err := tokenize(src); err == nil {
			t.Errorf("tokenize(%q): expected error", src)
		}
	}
}

func TestParseNumber(t *testing.T) {
	cases := []struct {
		in    string
		width int
		val   uint64
	}{
		{"13", 32, 13},
		{"8'hFF", 8, 255},
		{"8'hff", 8, 255},
		{"4'b1010", 4, 10},
		{"3'd7", 3, 7},
		{"8'o17", 8, 15},
		{"16'h1_0", 16, 16},
		{"4'bxx10", 4, 2}, // x -> 0
		{"2'd7", 2, 3},    // truncated to width
	}
	for _, c := range cases {
		n, err := ParseNumber(c.in)
		if err != nil {
			t.Fatalf("ParseNumber(%q): %v", c.in, err)
		}
		if n.Width != c.width || n.Value != c.val {
			t.Errorf("ParseNumber(%q) = width %d val %d, want %d %d", c.in, n.Width, n.Value, c.width, c.val)
		}
	}
	for _, bad := range []string{"8'q12", "'", "4'b", "abc'h12x!"} {
		if _, err := ParseNumber(bad); err == nil {
			t.Errorf("ParseNumber(%q): expected error", bad)
		}
	}
}

func TestParseALU(t *testing.T) {
	src, err := Parse(sampleALU)
	if err != nil {
		t.Fatal(err)
	}
	m := src.Top()
	if m == nil || m.Name != "alu" {
		t.Fatalf("top module: %+v", m)
	}
	ports := 0
	for _, d := range m.Decls {
		if d.IsPort {
			ports += len(d.Names)
		}
	}
	if ports != 6 {
		t.Errorf("ports: got %d, want 6", ports)
	}
	if got := len(m.Assigns); got != 4 {
		t.Errorf("assigns: got %d, want 4", got)
	}
	if got := len(m.Always); got != 2 {
		t.Errorf("always blocks: got %d, want 2", got)
	}
	if !m.Always[0].Star {
		t.Error("first always should be combinational")
	}
	if m.Always[1].Star || !m.Always[1].Events[0].Posedge {
		t.Error("second always should be posedge-sensitive")
	}
	yDecl := m.DeclOf("y")
	if yDecl == nil || !yDecl.IsReg || yDecl.Dir != DirOutput {
		t.Errorf("y decl: %+v", yDecl)
	}
}

func TestParseHierarchy(t *testing.T) {
	src := `
module half_adder(input a, input b, output s, output c);
  assign s = a ^ b;
  assign c = a & b;
endmodule

module full_adder(input a, input b, input cin, output s, output cout);
  wire s1, c1, c2;
  half_adder ha1 (.a(a), .b(b), .s(s1), .c(c1));
  half_adder ha2 (.a(s1), .b(cin), .s(s), .c(c2));
  assign cout = c1 | c2;
endmodule
`
	parsed, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Modules) != 2 {
		t.Fatalf("modules: %d", len(parsed.Modules))
	}
	top := parsed.Top()
	if top.Name != "full_adder" {
		t.Errorf("top = %s, want full_adder", top.Name)
	}
	if len(top.Instances) != 2 {
		t.Fatalf("instances: %d", len(top.Instances))
	}
	inst := top.Instances[0]
	if inst.ModuleName != "half_adder" || inst.Name != "ha1" || len(inst.Conns) != 4 {
		t.Errorf("instance: %+v", inst)
	}
}

func TestParseParameters(t *testing.T) {
	src := `
module shifter #(parameter WIDTH = 8, parameter AMT = 2) (
  input [WIDTH-1:0] din,
  output [WIDTH-1:0] dout
);
  localparam HALF = WIDTH / 2;
  assign dout = din << AMT;
endmodule
`
	parsed, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := parsed.Modules[0]
	if len(m.Params) != 3 {
		t.Fatalf("params: %d", len(m.Params))
	}
	if m.Params[0].Name != "WIDTH" || m.Params[2].Name != "HALF" || !m.Params[2].Local {
		t.Errorf("params: %+v %+v %+v", m.Params[0], m.Params[1], m.Params[2])
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	src := `module m(input [3:0] a, input [3:0] b, output [3:0] y);
  assign y = a + b & a ^ b | a;
endmodule`
	parsed, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// | binds loosest: ((a+b & a) ^ b) | a
	e := parsed.Modules[0].Assigns[0].RHS
	or, ok := e.(*Binary)
	if !ok || or.Op != "|" {
		t.Fatalf("root: %v", e)
	}
	xor, ok := or.L.(*Binary)
	if !ok || xor.Op != "^" {
		t.Fatalf("left of |: %v", or.L)
	}
	and, ok := xor.L.(*Binary)
	if !ok || and.Op != "&" {
		t.Fatalf("left of ^: %v", xor.L)
	}
	add, ok := and.L.(*Binary)
	if !ok || add.Op != "+" {
		t.Fatalf("left of &: %v", and.L)
	}
}

func TestParseTernaryAndSelects(t *testing.T) {
	src := `module m(input [7:0] a, input s, output [3:0] y, output b);
  assign y = s ? a[7:4] : a[3:0];
  assign b = a[2];
endmodule`
	parsed, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tern, ok := parsed.Modules[0].Assigns[0].RHS.(*Ternary)
	if !ok {
		t.Fatalf("not ternary: %v", parsed.Modules[0].Assigns[0].RHS)
	}
	if _, ok := tern.T.(*Range); !ok {
		t.Errorf("T arm not range: %v", tern.T)
	}
	if _, ok := parsed.Modules[0].Assigns[1].RHS.(*Index); !ok {
		t.Errorf("not index: %v", parsed.Modules[0].Assigns[1].RHS)
	}
}

func TestParseConcatRepl(t *testing.T) {
	src := `module m(input [3:0] a, output [7:0] y, output [7:0] z);
  assign y = {a, 4'b0000};
  assign z = {2{a}};
endmodule`
	parsed, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := parsed.Modules[0].Assigns[0].RHS.(*Concat); !ok {
		t.Error("expected concat")
	}
	if _, ok := parsed.Modules[0].Assigns[1].RHS.(*Repl); !ok {
		t.Error("expected replication")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"module",
		"module m; input; endmodule",
		"module m(input a; endmodule",
		"module m; assign = 1; endmodule",
		"module m; always @(posedge) begin end endmodule",
		"module m; reg [7:0] mem [0:3]; endmodule",
		"module m; wire w; assign w = (1; endmodule",
		"module m; case endmodule",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

// TestParseReportsTheFirstError: the parser pulls tokens as it goes, so
// a lexical error ends the stream where the parser reaches it and is
// reported in place of the parse error that follows, while a parse error
// before it is reported as it is.
func TestParseReportsTheFirstError(t *testing.T) {
	for _, c := range []struct {
		src string
		lex bool
	}{
		{"module m; endmodule $", true},
		{"module m; wire $ ; endmodule", true},
		{"module m; wire ; endmodule $", false},
	} {
		_, err := Parse(c.src)
		var le *LexError
		var pe *ParseError
		if c.lex && !errors.As(err, &le) || !c.lex && !errors.As(err, &pe) {
			t.Errorf("Parse(%q) = %v, want a lexical error %v", c.src, err, c.lex)
		}
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	// Every expression we can parse should re-parse from its String() form
	// to an identical string (printer fixed point).
	exprs := []string{
		"a + b", "a & (b | c)", "~a", "!a", "&a", "a ? b : c",
		"{a, b, c}", "{3{a}}", "a[3]", "a[7:4]", "a == b", "a << 2",
		"-a", "a ~^ b", "a % b",
	}
	for _, es := range exprs {
		src := "module m; assign x = " + es + "; endmodule"
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", es, err)
		}
		s1 := p1.Modules[0].Assigns[0].RHS.String()
		p2, err := Parse("module m; assign x = " + s1 + "; endmodule")
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", s1, es, err)
		}
		s2 := p2.Modules[0].Assigns[0].RHS.String()
		if s1 != s2 {
			t.Errorf("round trip: %q -> %q -> %q", es, s1, s2)
		}
	}
}

func TestQuickNumbersRoundTrip(t *testing.T) {
	// Property: any (width, value) pair we format as Verilog parses back to
	// the same value truncated to the width.
	f := func(width uint8, value uint64) bool {
		w := int(width%63) + 1
		masked := value & ((1 << uint(w)) - 1)
		n, err := ParseNumber((&Number{Width: w, Value: masked, Sized: true}).String())
		if err != nil {
			return false
		}
		return n.Width == w && n.Value == masked
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// nestedParens is a module assigning 1 inside n nested parentheses.
func nestedParens(n int) string {
	return "module m(output y); assign y = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; endmodule"
}

// TestParseDeepNestingIsAnError: a stack overflow is fatal in Go, so a
// source nested past MaxNesting must come back as a parse error naming
// the bound. Without the bound the parser dies near 50,000 nested
// parentheses under the test's 32 MB stack, so the first case nests a
// million deep; the others nest each kind of level the parser counts
// just past the bound.
func TestParseDeepNestingIsAnError(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(32 << 20))
	const n = MaxNesting + 1
	cases := map[string]string{
		"parentheses": nestedParens(1000000),
		"unary":       "module m(input a, output y); assign y = " + strings.Repeat("~", n) + "a; endmodule",
		"ternary":     "module m(input a, output y); assign y = " + strings.Repeat("a ? a : ", n) + "a; endmodule",
		"statements":  "module m(input a, output reg y); always @(*) " + strings.Repeat("if (a) ", n) + "y = a; endmodule",
	}
	for name, src := range cases {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxNesting)) {
			t.Errorf("%s: got %v, want an error naming the bound %d", name, err, MaxNesting)
		}
	}
	// The bound itself parses.
	if _, err := Parse(nestedParens(MaxNesting - 1)); err != nil {
		t.Errorf("%d nested parentheses: %v", MaxNesting-1, err)
	}
}

// TestParseMemoryBoundedByNesting: the parser holds one token at a time,
// so refusing a 2 MB source of a million nested parentheses allocates
// next to nothing, where lexing the whole source first would hold a
// 40-byte token per character.
func TestParseMemoryBoundedByNesting(t *testing.T) {
	src := nestedParens(1000000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Parse(src)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxNesting)) {
		t.Fatalf("got %v, want an error naming the bound %d", err, MaxNesting)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 1 {
		t.Errorf("refusing %d nested parentheses allocated %.1f MB, want under 1 MB", 1000000, mb)
	}
}
