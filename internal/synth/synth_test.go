package synth

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/elab"
	"rtltimer/internal/netlist"
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

const testSrc = `
module core(input clk, input [7:0] a, input [7:0] b, input [1:0] op,
            output [7:0] out);
  reg [7:0] s1, s2, deep;
  always @(posedge clk) begin
    case (op)
      2'd0: s1 <= a + b;
      2'd1: s1 <= a - b;
      2'd2: s1 <= a ^ b;
      default: s1 <= a & b;
    endcase
    s2 <= s1 | b;
    deep <= (s1 * s2) + a;
  end
  assign out = deep;
endmodule`

func TestSynthEquivalence(t *testing.T) {
	// The mapped netlist must be cycle-accurate with the SOG bit simulator.
	d := mustDesign(t, testSrc)
	sog, err := bog.Build(d, bog.SOG)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	bogSim := bog.NewSimulator(sog)
	nlSim := netlist.NewSimulator(res.Netlist)
	rng := rand.New(rand.NewSource(5))
	widths := map[string]int{"a": 8, "b": 8, "op": 2}
	for cycle := 0; cycle < 40; cycle++ {
		for name, w := range widths {
			v := rng.Uint64()
			bogSim.SetInputWord(name, v, w)
			nlSim.SetInputWord(name, v, w)
		}
		bogSim.Step()
		nlSim.Step()
		for _, reg := range []struct {
			name  string
			width int
		}{{"s1", 8}, {"s2", 8}, {"deep", 8}} {
			want := bogSim.RegWord(reg.name, reg.width)
			got := nlSim.RegWord(reg.name, reg.width)
			if got != want {
				t.Fatalf("cycle %d: netlist %s = %#x, BOG says %#x", cycle, reg.name, got, want)
			}
		}
	}
}

func TestSynthProducesRealCells(t *testing.T) {
	d := mustDesign(t, testSrc)
	res, err := Run(d, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for i := range res.Netlist.Gates {
		g := &res.Netlist.Gates[i]
		if g.Cell != nil {
			kinds[g.Cell.Kind.String()]++
		}
	}
	// A realistic cover uses inverting gates and complex cells, not just
	// AND2 — check a few families appear.
	for _, want := range []string{"NAND2", "INV"} {
		if kinds[want] == 0 {
			t.Errorf("no %s cells mapped; kinds: %v", want, kinds)
		}
	}
	if res.Netlist.SeqGates() != 24 {
		t.Errorf("seq gates = %d, want 24 (3 regs x 8 bits)", res.Netlist.SeqGates())
	}
	if res.Report.Area <= 0 || res.Report.Power <= 0 {
		t.Errorf("report: %+v", res.Report)
	}
}

func TestSynthLabelsComplete(t *testing.T) {
	d := mustDesign(t, testSrc)
	res, err := Run(d, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	labels := res.Labels()
	for _, sig := range []string{"s1", "s2", "deep"} {
		for bit := 0; bit < 8; bit++ {
			ref := sig + "[" + string(rune('0'+bit)) + "]"
			at, ok := labels[ref]
			if !ok {
				t.Errorf("missing label for %s", ref)
				continue
			}
			if at <= 0 {
				t.Errorf("label %s = %f", ref, at)
			}
		}
	}
}

func TestGroupPathImprovesTNS(t *testing.T) {
	d := mustDesign(t, testSrc)
	base, err := Run(d, Options{Seed: 7, Period: 0.32})
	if err != nil {
		t.Fatal(err)
	}
	// Build 4 groups from ground-truth ranking (best case for group_path).
	type epAT struct {
		ref string
		at  float64
	}
	var eps []epAT
	for ref, at := range base.Labels() {
		eps = append(eps, epAT{ref, at})
	}
	if len(eps) == 0 {
		t.Fatal("no endpoints")
	}
	// Sort descending by arrival.
	for i := range eps {
		for j := i + 1; j < len(eps); j++ {
			if eps[j].at > eps[i].at {
				eps[i], eps[j] = eps[j], eps[i]
			}
		}
	}
	n := len(eps)
	cut := func(lo, hi float64) []string {
		var refs []string
		for i := int(lo * float64(n)); i < int(hi*float64(n)) && i < n; i++ {
			refs = append(refs, eps[i].ref)
		}
		return refs
	}
	groups := [][]string{cut(0, 0.05), cut(0.05, 0.40), cut(0.40, 0.70), cut(0.70, 1.0)}
	opt, err := Run(d, Options{
		Seed: 7, Period: 0.32,
		Groups:       groups,
		GroupWeights: []float64{4, 3, 2, 1},
		SizingRounds: 28,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Timing.TNS >= 0 {
		t.Skip("design meets timing at this period; nothing to optimize")
	}
	if opt.Timing.TNS < base.Timing.TNS {
		t.Errorf("group_path TNS %.4f worse than default %.4f", opt.Timing.TNS, base.Timing.TNS)
	}
}

func TestRetimeLegalAndApplied(t *testing.T) {
	d := mustDesign(t, testSrc)
	base, err := Run(d, Options{Seed: 3, Period: 0.32})
	if err != nil {
		t.Fatal(err)
	}
	// Retime the most critical endpoints (top 5%).
	type epAT struct {
		ref string
		at  float64
	}
	var eps []epAT
	for ref, at := range base.Labels() {
		eps = append(eps, epAT{ref, at})
	}
	for i := range eps {
		for j := i + 1; j < len(eps); j++ {
			if eps[j].at > eps[i].at {
				eps[i], eps[j] = eps[j], eps[i]
			}
		}
	}
	var retime []string
	for i := 0; i < len(eps)/20+1; i++ {
		retime = append(retime, eps[i].ref)
	}
	opt, err := Run(d, Options{Seed: 3, Period: 0.32, RetimeRefs: retime})
	if err != nil {
		t.Fatal(err)
	}
	// If any retime was legal, the netlist contains #rt registers.
	found := false
	for i := range opt.Netlist.Gates {
		if strings.Contains(opt.Netlist.Gates[i].Name, "#rt") {
			found = true
			break
		}
	}
	if found && opt.Netlist.SeqGates() <= base.Netlist.SeqGates() {
		t.Errorf("retiming should add registers: %d -> %d", base.Netlist.SeqGates(), opt.Netlist.SeqGates())
	}
	if err := opt.Netlist.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementDegradesThenRecovers(t *testing.T) {
	d := mustDesign(t, testSrc)
	res, err := Run(d, Options{Seed: 11, Period: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	// Placement wires are worse than the synthesis wire-load model.
	if res.Placed.WNS > res.Timing.WNS {
		t.Errorf("placed WNS %.4f better than synthesis WNS %.4f", res.Placed.WNS, res.Timing.WNS)
	}
	// Post-placement optimization must not make WNS worse.
	if res.PostOpt.WNS < res.Placed.WNS-1e-9 {
		t.Errorf("post-opt WNS %.4f worse than placed %.4f", res.PostOpt.WNS, res.Placed.WNS)
	}
}

func TestBalanceReducesDepth(t *testing.T) {
	// A long AND chain must be rebalanced to logarithmic depth.
	src := `module chain(input clk, input [15:0] a, output o);
  reg r;
  always @(posedge clk)
    r <= a[0] & a[1] & a[2] & a[3] & a[4] & a[5] & a[6] & a[7] &
         a[8] & a[9] & a[10] & a[11] & a[12] & a[13] & a[14] & a[15];
  assign o = r;
endmodule`
	d := mustDesign(t, src)
	aig, err := bog.Build(d, bog.AIG)
	if err != nil {
		t.Fatal(err)
	}
	bal := balance(aig, 1)
	if err := bal.Check(); err != nil {
		t.Fatal(err)
	}
	if bal.Depth() >= aig.Depth() {
		t.Errorf("balance: depth %d -> %d, expected reduction", aig.Depth(), bal.Depth())
	}
	if bal.Depth() > 9 {
		t.Errorf("balanced 16-input AND depth = %d, want near log2", bal.Depth())
	}
}

func TestSizingImprovesWNS(t *testing.T) {
	d := mustDesign(t, testSrc)
	noSize, err := Run(d, Options{Seed: 5, Period: 0.32, SizingRounds: -1})
	if err != nil {
		t.Fatal(err)
	}
	sized, err := Run(d, Options{Seed: 5, Period: 0.32, SizingRounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	if sized.Timing.WNS < noSize.Timing.WNS {
		t.Errorf("sizing made WNS worse: %.4f -> %.4f", noSize.Timing.WNS, sized.Timing.WNS)
	}
}

// TestRunPeriod: a negative, NaN or infinite period is an error that
// names it, and period 0 runs at the documented 0.5 ns.
func TestRunPeriod(t *testing.T) {
	d := mustDesign(t, testSrc)
	for _, p := range []float64{-1, math.NaN(), math.Inf(1)} {
		_, err := Run(d, Options{Period: p, Seed: 1})
		if err == nil {
			t.Errorf("period %v accepted", p)
		} else if !strings.Contains(err.Error(), fmt.Sprint(p)) {
			t.Errorf("period %v: error %q does not name it", p, err)
		}
	}
	res, err := Run(d, Options{Period: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.ClockPeriod != 0.5 {
		t.Errorf("period 0 ran at %v ns, want 0.5", res.Timing.ClockPeriod)
	}
}
