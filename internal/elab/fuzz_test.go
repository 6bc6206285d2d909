package elab

import (
	"strings"
	"testing"

	"rtltimer/internal/designs"
	"rtltimer/internal/verilog"
)

// FuzzFrontend feeds arbitrary sources through verilog.Parse and then
// Elaborate, the path every inline source the daemon accepts takes. A
// source may be refused with an error; nothing may panic or overflow the
// stack. The seeds are the 21 suite designs and small versions of the
// inputs each frontend bound and fix is about. Sources over 64 KB are
// skipped: the largest suite design is under 12 KB.
func FuzzFrontend(f *testing.F) {
	for _, spec := range designs.All() {
		f.Add(designs.Generate(spec))
	}
	for _, src := range []string{
		`module m(input [0:9223372036854775807] a, output y); assign y = 1'b0; endmodule`,
		`module m(input a, output y); assign y = {64{{64{{64{{64{{64{{64{a}}}}}}}}}}}}; endmodule`,
		"module m(output y); assign y = " + strings.Repeat("(", 64) + "1" + strings.Repeat(")", 64) + "; endmodule",
		"module m(input [3:0] c, input [7:0] a, output reg [7:0] x);\nalways @(*) begin\n  x = a;\n" +
			strings.Repeat("  if (c[1]) x = x + 1;\n", 8) + "end\nendmodule\n",
		"module m(input [7:0] a, output reg [7:0] x);\nalways @(*) begin\n  x = 8'd0;\n" +
			strings.Repeat("  x[3] = a[5];\n", 8) + "end\nendmodule\n",
		"module m(input [7:0] a, output reg y);\nreg [63:0] t;\nalways @(*) begin\n  t = 1;\n" +
			strings.Repeat("  t = t + t;\n", 8) + "  y = a[t];\nend\nendmodule\n",
		fanoutSource(3, 3),
		`module m(input clk, input [7:0] x, output [7:0] y);
  reg [7:0] r;
  always @(posedge clk) {r[3:0], r[7:4]} <= x;
  assign {y[3:0], y[7:4]} = r;
endmodule`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 64<<10 {
			t.Skip()
		}
		parsed, err := verilog.Parse(src)
		if err != nil {
			return
		}
		// An error is a refusal, which is fine; only a panic fails.
		_, _ = Elaborate(parsed)
	})
}
