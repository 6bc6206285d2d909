package annotate

import (
	"strings"
	"testing"

	"rtltimer/internal/core"
)

const src = `module m(
  input clk,
  input [3:0] a,
  output [3:0] o
);
  reg [3:0] r1;
  reg [3:0] r2, deep;
  always @(posedge clk) begin
    r1 <= a;
    r2 <= r1 + a;
    deep <= r2 * r1;
  end
  assign o = deep;
endmodule`

func fakePrediction() *core.DesignPrediction {
	return &core.DesignPrediction{
		Period: 0.5,
		WNS:    -0.12,
		TNS:    -3.4,
		Signals: []core.SignalPrediction{
			{Name: "r1", AT: 0.2, Slack: 0.27, RankScore: 0.1, Group: 3},
			{Name: "r2", AT: 0.4, Slack: 0.07, RankScore: 0.5, Group: 1},
			{Name: "deep", AT: 0.6, Slack: -0.13, RankScore: 0.9, Group: 0},
			{Name: "u0.inner", AT: 0.55, Slack: -0.09, RankScore: 0.8, Group: 0},
		},
	}
}

func TestAnnotateHeader(t *testing.T) {
	out, err := Annotate(src, fakePrediction())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "// Tech: NanGate45nm-sim") {
		t.Error("missing tech header")
	}
	if !strings.Contains(out, "WNS: -0.12ns, TNS: -3.40ns") {
		t.Errorf("missing WNS/TNS header:\n%s", out)
	}
}

func TestAnnotateSignalLines(t *testing.T) {
	out, err := Annotate(src, fakePrediction())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	var r1Line, r2Line string
	for _, l := range lines {
		if strings.Contains(l, "reg [3:0] r1;") {
			r1Line = l
		}
		if strings.Contains(l, "reg [3:0] r2, deep;") {
			r2Line = l
		}
	}
	if !strings.Contains(r1Line, "(r1) Slack@0.27ns rank@g4") {
		t.Errorf("r1 annotation: %q", r1Line)
	}
	// Shared declaration line carries both signals.
	if !strings.Contains(r2Line, "(deep) Slack@-0.13ns rank@g1") ||
		!strings.Contains(r2Line, "(r2) Slack@0.07ns rank@g2") {
		t.Errorf("r2/deep annotation: %q", r2Line)
	}
}

func TestAnnotateHierarchicalSummary(t *testing.T) {
	out, err := Annotate(src, fakePrediction())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "u0.inner") {
		t.Error("hierarchical signal missing from summary")
	}
}

func TestAnnotatedSourceStillParses(t *testing.T) {
	out, err := Annotate(src, fakePrediction())
	if err != nil {
		t.Fatal(err)
	}
	// The annotated file must remain valid Verilog (comments only).
	if _, err := Annotate(out, fakePrediction()); err != nil {
		t.Fatalf("annotated output no longer parses: %v", err)
	}
}

func TestAnnotateBadSource(t *testing.T) {
	if _, err := Annotate("not verilog", fakePrediction()); err == nil {
		t.Error("expected parse error")
	}
}
