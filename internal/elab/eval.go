package elab

import "fmt"

// Simulator evaluates a word-level Design cycle by cycle. It is the
// reference the bit-blast cross-check in package bog's tests compares
// every BOG variant against. Signals wider than 64 bits are not supported
// (the elaborator enforces this bound).
type Simulator struct {
	d      *Design
	inputs map[SigID]uint64
	state  map[SigID]uint64 // register values
	values []uint64
	valid  []bool
}

// NewSimulator creates a simulator with all registers and inputs at 0.
func NewSimulator(d *Design) *Simulator {
	return &Simulator{
		d:      d,
		inputs: map[SigID]uint64{},
		state:  map[SigID]uint64{},
	}
}

// SetInput sets a top-level input by name.
func (s *Simulator) SetInput(name string, v uint64) error {
	id, ok := s.d.SignalID(name)
	if !ok {
		return fmt.Errorf("elab: no signal %q", name)
	}
	if !s.d.Signals[id].IsInput {
		return fmt.Errorf("elab: %q is not an input", name)
	}
	s.inputs[id] = mask(v, s.d.Signals[id].Width)
	return nil
}

// Reg returns the current value of a register signal.
func (s *Simulator) Reg(name string) (uint64, error) {
	id, ok := s.d.SignalID(name)
	if !ok || !s.d.Signals[id].IsReg {
		return 0, fmt.Errorf("elab: no register %q", name)
	}
	return s.state[id], nil
}

// Output evaluates a top-level output by name under current inputs/state.
func (s *Simulator) Output(name string) (uint64, error) {
	id, ok := s.d.SignalID(name)
	if !ok {
		return 0, fmt.Errorf("elab: no signal %q", name)
	}
	for _, o := range s.d.Outputs {
		if o.Sig == id {
			s.prepare()
			return s.eval(o.Node), nil
		}
	}
	return 0, fmt.Errorf("elab: %q is not an output", name)
}

// Node evaluates an arbitrary node under current inputs/state.
func (s *Simulator) Node(n NodeID) uint64 {
	s.prepare()
	return s.eval(n)
}

// Step advances one clock cycle: all registers load their D values
// simultaneously.
func (s *Simulator) Step() {
	s.prepare()
	next := make(map[SigID]uint64, len(s.d.Regs))
	for _, r := range s.d.Regs {
		next[r.Sig] = mask(s.eval(r.D), s.d.Signals[r.Sig].Width)
	}
	s.state = next
}

func (s *Simulator) prepare() {
	if cap(s.values) < len(s.d.Nodes) {
		s.values = make([]uint64, len(s.d.Nodes))
		s.valid = make([]bool, len(s.d.Nodes))
	} else {
		s.values = s.values[:len(s.d.Nodes)]
		s.valid = s.valid[:len(s.d.Nodes)]
		for i := range s.valid {
			s.valid[i] = false
		}
	}
}

func mask(v uint64, w int) uint64 {
	if w >= 64 {
		return v
	}
	return v & ((1 << uint(w)) - 1)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (s *Simulator) eval(id NodeID) uint64 {
	if s.valid[id] {
		return s.values[id]
	}
	n := &s.d.Nodes[id]
	var v uint64
	switch n.Kind {
	case OpConst:
		v = n.Const
	case OpInput:
		v = s.inputs[n.Sig]
	case OpRegQ:
		v = s.state[n.Sig]
	case OpNot:
		v = ^s.eval(n.Args[0])
	case OpNeg:
		v = -s.eval(n.Args[0])
	case OpRedAnd:
		a := s.eval(n.Args[0])
		w := s.d.Nodes[n.Args[0]].Width
		v = b2u(a == mask(^uint64(0), w))
	case OpRedOr:
		v = b2u(s.eval(n.Args[0]) != 0)
	case OpRedXor:
		a := s.eval(n.Args[0])
		var x uint64
		for ; a != 0; a &= a - 1 {
			x ^= 1
		}
		v = x
	case OpLNot:
		v = b2u(s.eval(n.Args[0]) == 0)
	case OpAnd:
		v = s.eval(n.Args[0]) & s.eval(n.Args[1])
	case OpOr:
		v = s.eval(n.Args[0]) | s.eval(n.Args[1])
	case OpXor:
		v = s.eval(n.Args[0]) ^ s.eval(n.Args[1])
	case OpXnor:
		v = ^(s.eval(n.Args[0]) ^ s.eval(n.Args[1]))
	case OpAdd:
		v = s.eval(n.Args[0]) + s.eval(n.Args[1])
	case OpSub:
		v = s.eval(n.Args[0]) - s.eval(n.Args[1])
	case OpMul:
		v = s.eval(n.Args[0]) * s.eval(n.Args[1])
	case OpShl:
		sh := s.eval(n.Args[1])
		if sh >= 64 {
			v = 0
		} else {
			v = s.eval(n.Args[0]) << sh
		}
	case OpShr:
		sh := s.eval(n.Args[1])
		if sh >= 64 {
			v = 0
		} else {
			v = mask(s.eval(n.Args[0]), s.d.Nodes[n.Args[0]].Width) >> sh
		}
	case OpEq:
		v = b2u(s.evalM(n.Args[0]) == s.evalM(n.Args[1]))
	case OpNeq:
		v = b2u(s.evalM(n.Args[0]) != s.evalM(n.Args[1]))
	case OpLt:
		v = b2u(s.evalM(n.Args[0]) < s.evalM(n.Args[1]))
	case OpLe:
		v = b2u(s.evalM(n.Args[0]) <= s.evalM(n.Args[1]))
	case OpGt:
		v = b2u(s.evalM(n.Args[0]) > s.evalM(n.Args[1]))
	case OpGe:
		v = b2u(s.evalM(n.Args[0]) >= s.evalM(n.Args[1]))
	case OpLAnd:
		v = b2u(s.evalM(n.Args[0]) != 0 && s.evalM(n.Args[1]) != 0)
	case OpLOr:
		v = b2u(s.evalM(n.Args[0]) != 0 || s.evalM(n.Args[1]) != 0)
	case OpMux:
		if s.evalM(n.Args[0]) != 0 {
			v = s.eval(n.Args[1])
		} else {
			v = s.eval(n.Args[2])
		}
	case OpConcat:
		// Args are MSB-first.
		for _, a := range n.Args {
			aw := s.d.Nodes[a].Width
			v = (v << uint(aw)) | s.evalM(a)
		}
	case OpSlice:
		v = s.evalM(n.Args[0]) >> uint(n.Lo)
	default:
		panic(fmt.Sprintf("elab: eval of %v not implemented", n.Kind))
	}
	v = mask(v, n.Width)
	s.values[id] = v
	s.valid[id] = true
	return v
}

// evalM evaluates and masks to the argument's own width.
func (s *Simulator) evalM(id NodeID) uint64 {
	return mask(s.eval(id), s.d.Nodes[id].Width)
}
