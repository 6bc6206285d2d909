// Package netlist defines the gate-level netlist produced by the
// logic-synthesis substrate (package synth), together with netlist-level
// static timing analysis, a functional simulator (used to verify that
// synthesis preserves logic), and power/area reporting.
package netlist

import (
	"fmt"
	"math"

	"rtltimer/internal/liberty"
)

// GateID indexes a gate. Gates are kept in topological order.
type GateID int32

// Nil marks an unused fanin slot.
const Nil GateID = -1

// GateType distinguishes sources from combinational cells.
type GateType uint8

// Gate types.
const (
	GConst0 GateType = iota
	GConst1
	GInput // primary input bit
	GDFFQ  // register output (source side of a DFF)
	GComb  // combinational cell (Cell != nil)
)

// Gate is one netlist element.
type Gate struct {
	Type  GateType
	Cell  *liberty.Cell // GComb only
	Fanin [3]GateID
	Name  string // debug / source ref for GInput and GDFFQ
}

// NumFanin returns the used fanin count.
func (g *Gate) NumFanin() int {
	if g.Type != GComb {
		return 0
	}
	return g.Cell.Kind.NumInputs()
}

// Endpoint is a netlist timing endpoint: a DFF D pin or primary output.
type Endpoint struct {
	Signal string // RTL signal name (register) or output port
	Bit    int
	D      GateID // driver of the D pin / output
	Q      GateID // matching GDFFQ gate (Nil for POs)
	IsPO   bool
}

// Ref renders the endpoint reference as signal[bit].
func (e *Endpoint) Ref() string { return fmt.Sprintf("%s[%d]", e.Signal, e.Bit) }

// Netlist is a mapped gate-level design.
type Netlist struct {
	Design    string
	Lib       *liberty.GateLib
	Gates     []Gate
	Endpoints []Endpoint
	DFF       *liberty.Cell // the flop cell used for all registers
}

// New returns an empty netlist with the two constant gates (ids 0, 1).
func New(design string, lib *liberty.GateLib) *Netlist {
	n := &Netlist{Design: design, Lib: lib, DFF: lib.Cell(liberty.CDFF, 1)}
	n.Gates = append(n.Gates, Gate{Type: GConst0, Fanin: [3]GateID{Nil, Nil, Nil}})
	n.Gates = append(n.Gates, Gate{Type: GConst1, Fanin: [3]GateID{Nil, Nil, Nil}})
	return n
}

// Zero and One return the constant gates.
func (n *Netlist) Zero() GateID { return 0 }

// One returns the constant-1 gate.
func (n *Netlist) One() GateID { return 1 }

// Add appends a gate and returns its id. Fanins must already exist.
func (n *Netlist) Add(g Gate) GateID {
	id := GateID(len(n.Gates))
	n.Gates = append(n.Gates, g)
	return id
}

// AddComb appends a combinational cell instance.
func (n *Netlist) AddComb(cell *liberty.Cell, fanin ...GateID) GateID {
	g := Gate{Type: GComb, Cell: cell, Fanin: [3]GateID{Nil, Nil, Nil}}
	copy(g.Fanin[:], fanin)
	return n.Add(g)
}

// CombGates counts combinational cells.
func (n *Netlist) CombGates() int {
	c := 0
	for i := range n.Gates {
		if n.Gates[i].Type == GComb {
			c++
		}
	}
	return c
}

// SeqGates counts register bits (DFFs).
func (n *Netlist) SeqGates() int {
	c := 0
	for i := range n.Gates {
		if n.Gates[i].Type == GDFFQ {
			c++
		}
	}
	return c
}

// FanoutCounts returns the consumer count per gate, counting endpoint D
// pins as consumers.
func (n *Netlist) FanoutCounts() []int32 {
	fo := make([]int32, len(n.Gates))
	for i := range n.Gates {
		g := &n.Gates[i]
		for j := 0; j < g.NumFanin(); j++ {
			fo[g.Fanin[j]]++
		}
	}
	for _, ep := range n.Endpoints {
		fo[ep.D]++
	}
	return fo
}

// Check validates topological order and fanin arity.
func (n *Netlist) Check() error {
	for i := range n.Gates {
		g := &n.Gates[i]
		for j := 0; j < g.NumFanin(); j++ {
			f := g.Fanin[j]
			if f < 0 || f >= GateID(i) {
				return fmt.Errorf("netlist: gate %d fanin %d violates topological order", i, f)
			}
		}
	}
	for _, ep := range n.Endpoints {
		if ep.D < 0 || int(ep.D) >= len(n.Gates) {
			return fmt.Errorf("netlist: endpoint %s has invalid driver", ep.Ref())
		}
	}
	return nil
}

// ---- Timing ----

// WireModel abstracts the interconnect model: pre-placement uses a
// fanout-based wire-load model; post-placement adds a per-net spread from
// the pseudo-placement.
type WireModel struct {
	CapPerFanout   float64   // load units added per fanout edge
	DelayPerFanout float64   // fixed wire delay per fanout edge, ns
	Spread         []float64 // optional per-gate multiplier (placement); nil = 1.0
}

// PrePlacementWires returns the synthesis wire-load model.
func PrePlacementWires() *WireModel {
	return &WireModel{CapPerFanout: 0.8, DelayPerFanout: 0.002}
}

// Timing is the result of netlist STA.
type Timing struct {
	ClockPeriod float64
	Arrival     []float64
	Slew        []float64
	Load        []float64
	EndpointAT  []float64
	Slack       []float64
	WNS         float64
	TNS         float64
}

// Analyze runs STA on the netlist.
func (n *Netlist) Analyze(period float64, wires *WireModel) *Timing {
	t := &Timing{
		ClockPeriod: period,
		Arrival:     make([]float64, len(n.Gates)),
		Slew:        make([]float64, len(n.Gates)),
		Load:        make([]float64, len(n.Gates)),
	}
	fo := n.FanoutCounts()
	for i := range n.Gates {
		g := &n.Gates[i]
		for j := 0; j < g.NumFanin(); j++ {
			t.Load[g.Fanin[j]] += g.Cell.InputCap
		}
	}
	for _, ep := range n.Endpoints {
		if !ep.IsPO {
			t.Load[ep.D] += n.DFF.InputCap
		}
	}
	spread := func(i int) float64 {
		if wires.Spread == nil {
			return 1
		}
		return wires.Spread[i]
	}
	for i := range n.Gates {
		t.Load[i] += wires.CapPerFanout * float64(fo[i]) * spread(i)
	}
	for i := range n.Gates {
		g := &n.Gates[i]
		wire := wires.DelayPerFanout * float64(fo[i]) * spread(i)
		switch g.Type {
		case GConst0, GConst1:
			// Constants contribute no timing.
		case GInput:
			t.Arrival[i] = 0.004*t.Load[i] + wire
			t.Slew[i] = 0.012 + 0.002*t.Load[i]
		case GDFFQ:
			t.Arrival[i] = n.DFF.ClkToQ + n.DFF.DriveRes*t.Load[i] + wire
			t.Slew[i] = n.DFF.SlewBase + n.DFF.SlewCoef*t.Load[i]
		case GComb:
			worst, worstSlew := 0.0, 0.0
			for j := 0; j < g.NumFanin(); j++ {
				f := g.Fanin[j]
				if t.Arrival[f] > worst {
					worst = t.Arrival[f]
				}
				if t.Slew[f] > worstSlew {
					worstSlew = t.Slew[f]
				}
			}
			c := g.Cell
			delay := c.Intrinsic + c.DriveRes*t.Load[i] + c.SlewSens*worstSlew + wire
			t.Arrival[i] = worst + delay
			t.Slew[i] = c.SlewBase + c.SlewCoef*t.Load[i]
		}
	}
	t.EndpointAT = make([]float64, len(n.Endpoints))
	t.Slack = make([]float64, len(n.Endpoints))
	t.WNS = math.Inf(1)
	for i, ep := range n.Endpoints {
		at := t.Arrival[ep.D]
		t.EndpointAT[i] = at
		slack := period - at - n.DFF.Setup
		t.Slack[i] = slack
		if slack < t.WNS {
			t.WNS = slack
		}
		if slack < 0 {
			t.TNS += slack
		}
	}
	if len(n.Endpoints) == 0 {
		t.WNS = 0
	}
	return t
}

// CriticalPath back-traces the slowest path to endpoint ep.
func (t *Timing) CriticalPath(n *Netlist, ep int) []GateID {
	var rev []GateID
	cur := n.Endpoints[ep].D
	for {
		rev = append(rev, cur)
		g := &n.Gates[cur]
		if g.NumFanin() == 0 {
			break
		}
		best := g.Fanin[0]
		for j := 1; j < g.NumFanin(); j++ {
			if t.Arrival[g.Fanin[j]] > t.Arrival[best] {
				best = g.Fanin[j]
			}
		}
		cur = best
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// ---- Power and area ----

// Report summarizes design quality metrics.
type Report struct {
	Area     float64 // um^2
	Leakage  float64 // nW
	Dynamic  float64 // arbitrary switching-power units
	Power    float64 // Leakage + Dynamic
	Gates    int
	Regs     int
	CombArea float64
}

// PowerArea computes the quality report. Dynamic power uses a uniform
// activity estimate over total switched load.
func (n *Netlist) PowerArea() Report {
	const activity = 0.15
	r := Report{}
	fo := n.FanoutCounts()
	for i := range n.Gates {
		g := &n.Gates[i]
		switch g.Type {
		case GComb:
			r.Area += g.Cell.Area
			r.CombArea += g.Cell.Area
			r.Leakage += g.Cell.Leakage
			r.Dynamic += activity * (g.Cell.InputCap*float64(g.NumFanin()) + 0.8*float64(fo[i]))
			r.Gates++
		case GDFFQ:
			r.Area += n.DFF.Area
			r.Leakage += n.DFF.Leakage
			r.Dynamic += activity * (n.DFF.InputCap + 0.8*float64(fo[i]))
			r.Regs++
		}
	}
	r.Power = r.Leakage*0.01 + r.Dynamic
	return r
}

// ---- Functional simulation ----

// Simulator evaluates the netlist cycle by cycle; used by tests to verify
// that synthesis preserves functionality versus the BOG.
type Simulator struct {
	n      *Netlist
	inputs map[string]bool // keyed by gate Name of GInput
	state  map[GateID]bool // DFFQ values
	vals   []bool
}

// NewSimulator returns a simulator with zeroed inputs and state.
func NewSimulator(n *Netlist) *Simulator {
	return &Simulator{n: n, inputs: map[string]bool{}, state: map[GateID]bool{}}
}

// SetInputBit drives one named input bit ("sig[3]").
func (s *Simulator) SetInputBit(name string, v bool) { s.inputs[name] = v }

// SetInputWord drives width bits of signal name.
func (s *Simulator) SetInputWord(name string, v uint64, width int) {
	for i := 0; i < width; i++ {
		s.SetInputBit(fmt.Sprintf("%s[%d]", name, i), v>>uint(i)&1 == 1)
	}
}

func (s *Simulator) evalAll() {
	if cap(s.vals) < len(s.n.Gates) {
		s.vals = make([]bool, len(s.n.Gates))
	}
	s.vals = s.vals[:len(s.n.Gates)]
	for i := range s.n.Gates {
		g := &s.n.Gates[i]
		switch g.Type {
		case GConst0:
			s.vals[i] = false
		case GConst1:
			s.vals[i] = true
		case GInput:
			s.vals[i] = s.inputs[g.Name]
		case GDFFQ:
			s.vals[i] = s.state[GateID(i)]
		case GComb:
			var in [3]bool
			for j := 0; j < g.NumFanin(); j++ {
				in[j] = s.vals[g.Fanin[j]]
			}
			s.vals[i] = g.Cell.Kind.Eval(in)
		}
	}
}

// Step advances one clock: every DFF captures its D value.
func (s *Simulator) Step() {
	s.evalAll()
	next := make(map[GateID]bool, len(s.n.Endpoints))
	for _, ep := range s.n.Endpoints {
		if ep.IsPO {
			continue
		}
		next[ep.Q] = s.vals[ep.D]
	}
	s.state = next
}

// RegWord reads back a register signal's bits as a word.
func (s *Simulator) RegWord(name string, width int) uint64 {
	var v uint64
	for _, ep := range s.n.Endpoints {
		if ep.IsPO || ep.Signal != name || ep.Bit >= width {
			continue
		}
		if s.state[ep.Q] {
			v |= 1 << uint(ep.Bit)
		}
	}
	return v
}
