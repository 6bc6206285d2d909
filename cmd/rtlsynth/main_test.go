package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rtltimer/internal/elab"
	"rtltimer/internal/synth"
	"rtltimer/internal/verilog"
)

const testSrc = `
module core(input clk, input [7:0] a, input [7:0] b, output [7:0] out);
  reg [7:0] s1, deep;
  always @(posedge clk) begin
    s1 <= a + b;
    deep <= s1 * a;
  end
  assign out = deep;
endmodule`

// TestZeroPeriodReportsTheClockItRan: synth.Run treats period 0 as
// 0.5 ns, so the report must print that clock, and the worst endpoint's
// slack must be the WNS the timing line prints.
func TestZeroPeriodReportsTheClockItRan(t *testing.T) {
	parsed, err := verilog.Parse(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	design, err := elab.Elaborate(parsed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Run(design, synth.Options{Period: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	printReport(&b, design, res, 3)
	out := b.String()
	if !strings.Contains(out, "clock         0.500 ns\n") {
		t.Errorf("report does not print the 0.5 ns clock synth ran at:\n%s", out)
	}
	var wns, slack, at float64
	var ref string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "timing ") {
			if _, err := fmt.Sscanf(line, "timing WNS %f ns", &wns); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
		}
	}
	worst := strings.SplitN(out, "worst endpoints:\n", 2)
	if len(worst) != 2 {
		t.Fatalf("no worst-endpoint table:\n%s", out)
	}
	if _, err := fmt.Sscanf(worst[1], "%s AT %f ns slack %f ns", &ref, &at, &slack); err != nil {
		t.Fatalf("parse worst endpoint %q: %v", worst[1], err)
	}
	if slack != wns {
		t.Errorf("worst endpoint %s slack %+.3f, but the timing line reports WNS %.3f:\n%s", ref, slack, wns, out)
	}
}
