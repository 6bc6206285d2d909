// Quickstart: train RTL-Timer on the benchmark suite and predict
// per-signal slack for a small pipelined ALU from its RTL — the paper's
// core use case: timing feedback at the RTL stage. The prediction itself
// needs no synthesis, but PredictVerilog also runs the synthesis substrate
// on the design (once to probe the automatic clock, once at that clock)
// so the example can print the ground truth beside the prediction.
package main

import (
	"fmt"
	"log"
	"sort"

	"rtltimer"
)

const aluSrc = `
// A small two-stage ALU: decode+operate, then accumulate.
module mini_alu(
  input clk,
  input rst,
  input [15:0] a,
  input [15:0] b,
  input [2:0] op,
  output [15:0] y
);
  reg [15:0] stage1;
  reg [15:0] acc;
  reg [2:0] op_q;

  always @(posedge clk) begin
    if (rst) begin
      stage1 <= 16'd0;
      op_q <= 3'd0;
      acc <= 16'd0;
    end else begin
      op_q <= op;
      case (op)
        3'd0: stage1 <= a + b;
        3'd1: stage1 <= a - b;
        3'd2: stage1 <= a & b;
        3'd3: stage1 <= a | b;
        3'd4: stage1 <= a ^ b;
        3'd5: stage1 <= a[7:0] * b[7:0];
        default: stage1 <= b;
      endcase
      acc <= op_q == 3'd6 ? acc + stage1 : stage1;
    end
  end
  assign y = acc;
endmodule
`

func main() {
	log.SetFlags(0)
	fmt.Println("training RTL-Timer on the 21-design benchmark suite...")
	pred, err := rtltimer.TrainBenchmarkPredictor(rtltimer.Options{Fast: true, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	res, err := pred.PredictVerilog(aluSrc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndesign %s @ %.2f ns clock\n", res.DesignName, res.PeriodNS)
	fmt.Printf("predicted WNS %.3f ns, TNS %.2f ns\n\n", res.WNS, res.TNS)

	sigs := append([]rtltimer.SignalSlack(nil), res.Signals...)
	sort.Slice(sigs, func(i, j int) bool { return sigs[i].SlackNS < sigs[j].SlackNS })
	fmt.Println("per-signal slack prediction (worst first):")
	for _, s := range sigs {
		fmt.Printf("  %-10s arrival %.3f ns   slack %+.3f ns   rank g%d\n",
			s.Name, s.ArrivalNS, s.SlackNS, s.Group+1)
	}

	bitR, sigR, covr := res.Accuracy()
	wns, tns := res.GroundTruth()
	fmt.Printf("\naccuracy vs synthesis ground truth: bit R %.2f, signal R %.2f, COVR %.0f%%\n", bitR, sigR, covr)
	fmt.Printf("actual WNS %.3f ns, TNS %.2f ns\n", wns, tns)
}
