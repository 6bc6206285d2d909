package netlist

import (
	"math"
	"testing"

	"rtltimer/internal/liberty"
)

// buildToy constructs a small netlist by hand:
//
//	in a[0], a[1] -> NAND2 -> INV -> DFF r[0]
//	r[0] Q -> XOR2 with a[0] -> PO out[0]
func buildToy(t *testing.T) *Netlist {
	t.Helper()
	lib := liberty.NanGate45()
	n := New("toy", lib)
	a0 := n.Add(Gate{Type: GInput, Name: "a[0]", Fanin: [3]GateID{Nil, Nil, Nil}})
	a1 := n.Add(Gate{Type: GInput, Name: "a[1]", Fanin: [3]GateID{Nil, Nil, Nil}})
	q := n.Add(Gate{Type: GDFFQ, Name: "r[0]", Fanin: [3]GateID{Nil, Nil, Nil}})
	nand := n.AddComb(lib.Cell(liberty.CNand2, 1), a0, a1)
	inv := n.AddComb(lib.Cell(liberty.CInv, 1), nand)
	xor := n.AddComb(lib.Cell(liberty.CXor2, 1), q, a0)
	n.Endpoints = append(n.Endpoints,
		Endpoint{Signal: "r", Bit: 0, D: inv, Q: q},
		Endpoint{Signal: "out", Bit: 0, D: xor, Q: Nil, IsPO: true},
	)
	if err := n.Check(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNetlistCounts(t *testing.T) {
	n := buildToy(t)
	if n.CombGates() != 3 {
		t.Errorf("comb gates: %d", n.CombGates())
	}
	if n.SeqGates() != 1 {
		t.Errorf("seq gates: %d", n.SeqGates())
	}
	fo := n.FanoutCounts()
	// Ids: 0/1 constants, 2 a0, 3 a1, 4 q, 5 nand, 6 inv, 7 xor.
	if fo[2] != 2 { // a0 feeds NAND and XOR
		t.Errorf("a0 fanout: %d", fo[2])
	}
	if fo[4] != 1 { // q -> xor
		t.Errorf("q fanout: %d", fo[4])
	}
	if fo[6] != 1 { // inv -> DFF D pin (endpoint load)
		t.Errorf("inv fanout: %d", fo[6])
	}
}

func TestNetlistTimingMonotone(t *testing.T) {
	n := buildToy(t)
	tm := n.Analyze(1.0, PrePlacementWires())
	for i := range n.Gates {
		g := &n.Gates[i]
		for j := 0; j < g.NumFanin(); j++ {
			if tm.Arrival[g.Fanin[j]] > tm.Arrival[i] {
				t.Fatalf("arrival not monotone at %d", i)
			}
		}
	}
	// DFF endpoint goes through NAND+INV: arrival must exceed clk-to-q of
	// nothing (inputs arrive at ~0) plus two cell delays.
	if tm.EndpointAT[0] < 0.03 {
		t.Errorf("endpoint AT too small: %f", tm.EndpointAT[0])
	}
	if tm.WNS > 1.0 {
		t.Errorf("WNS %f above period", tm.WNS)
	}
	// Tight clock gives negative slack.
	tight := n.Analyze(0.01, PrePlacementWires())
	if tight.WNS >= 0 || tight.TNS >= 0 {
		t.Errorf("tight clock: WNS %f TNS %f", tight.WNS, tight.TNS)
	}
}

func TestCriticalPathEndsAtSource(t *testing.T) {
	n := buildToy(t)
	tm := n.Analyze(1.0, PrePlacementWires())
	p := tm.CriticalPath(n, 0)
	if len(p) < 2 {
		t.Fatalf("path too short: %v", p)
	}
	if n.Gates[p[0]].NumFanin() != 0 {
		t.Error("critical path must start at a source")
	}
	if p[len(p)-1] != n.Endpoints[0].D {
		t.Error("critical path must end at the endpoint driver")
	}
}

func TestPowerAreaPositive(t *testing.T) {
	n := buildToy(t)
	r := n.PowerArea()
	if r.Area <= 0 || r.Power <= 0 || r.Leakage <= 0 {
		t.Errorf("report: %+v", r)
	}
	if r.Gates != 3 || r.Regs != 1 {
		t.Errorf("counts: %+v", r)
	}
	// Upsizing a gate increases area.
	n.Gates[5].Cell = n.Lib.Cell(liberty.CNand2, 2)
	r2 := n.PowerArea()
	if r2.Area <= r.Area {
		t.Errorf("upsizing did not grow area: %f vs %f", r2.Area, r.Area)
	}
}

func TestSimulatorLogic(t *testing.T) {
	n := buildToy(t)
	sim := NewSimulator(n)
	// r <= ~(~(a0 & a1)) = a0 & a1 ; out = rQ ^ a0
	sim.SetInputBit("a[0]", true)
	sim.SetInputBit("a[1]", true)
	sim.Step()
	if got := sim.RegWord("r", 1); got != 1 {
		t.Errorf("r = %d, want 1", got)
	}
	sim.SetInputBit("a[1]", false)
	sim.Step()
	if got := sim.RegWord("r", 1); got != 0 {
		t.Errorf("r = %d, want 0", got)
	}
}

func TestWireSpreadIncreasesDelay(t *testing.T) {
	n := buildToy(t)
	base := n.Analyze(1.0, PrePlacementWires())
	spread := make([]float64, len(n.Gates))
	for i := range spread {
		spread[i] = 2.0
	}
	w := PrePlacementWires()
	w.Spread = spread
	placed := n.Analyze(1.0, w)
	if placed.EndpointAT[0] <= base.EndpointAT[0] {
		t.Errorf("spread did not slow the design: %f vs %f", placed.EndpointAT[0], base.EndpointAT[0])
	}
}

func TestCellKindEval(t *testing.T) {
	cases := []struct {
		kind liberty.CellKind
		in   [3]bool
		want bool
	}{
		{liberty.CInv, [3]bool{true}, false},
		{liberty.CNand2, [3]bool{true, true}, false},
		{liberty.CNor2, [3]bool{false, false}, true},
		{liberty.CXor2, [3]bool{true, false}, true},
		{liberty.CXnor2, [3]bool{true, true}, true},
		{liberty.CMux2, [3]bool{true, true, false}, true},
		{liberty.CMux2, [3]bool{false, true, false}, false},
		{liberty.CAoi21, [3]bool{true, true, false}, false},
		{liberty.CAoi21, [3]bool{false, false, false}, true},
		{liberty.COai21, [3]bool{true, false, true}, false},
	}
	for _, c := range cases {
		if got := c.kind.Eval(c.in); got != c.want {
			t.Errorf("%v(%v) = %v", c.kind, c.in, got)
		}
	}
}

func TestCheckRejectsBadTopology(t *testing.T) {
	lib := liberty.NanGate45()
	n := New("bad", lib)
	// Gate referencing a later id.
	g := Gate{Type: GComb, Cell: lib.Cell(liberty.CInv, 1), Fanin: [3]GateID{99, Nil, Nil}}
	n.Gates = append(n.Gates, g)
	if err := n.Check(); err == nil {
		t.Error("expected topology error")
	}
}

func TestEmptyTiming(t *testing.T) {
	n := New("empty", liberty.NanGate45())
	tm := n.Analyze(1.0, PrePlacementWires())
	if tm.WNS != 0 || !almostZero(tm.TNS) {
		t.Errorf("empty design WNS %f TNS %f", tm.WNS, tm.TNS)
	}
}

func almostZero(x float64) bool { return math.Abs(x) < 1e-12 }
