// Package elab elaborates a parsed Verilog source into a flat word-level
// intermediate representation (IR). Elaboration performs module flattening
// (all instances inlined with hierarchical names), parameter resolution,
// always-block symbolic execution (if/case statements become mux trees),
// and width inference. The resulting Design is the input to bit blasting
// (package bog).
package elab

import "fmt"

// SigID identifies a signal in the design's signal table.
type SigID int32

// NodeID identifies a word-level IR node. The zero node is reserved invalid.
type NodeID int32

// InvalidNode marks the absence of a node.
const InvalidNode NodeID = -1

// Signal is a flattened design signal.
type Signal struct {
	Name     string // hierarchical name, e.g. "u_core.pc"
	Width    int
	IsReg    bool // sequential element (has a register)
	IsInput  bool // top-level input port
	IsOutput bool // top-level output port
	// SourceName/SourceLine identify the signal in the original top module
	// text when it belongs to the top level (used by the annotator).
	SourceLine int
}

// OpKind is the word-level operator of a node.
type OpKind uint8

// Word-level operator kinds.
const (
	OpConst OpKind = iota
	OpInput        // top-level primary input (signal)
	OpRegQ         // register output (signal)
	OpNot          // bitwise not
	OpNeg          // two's complement negate
	OpRedAnd
	OpRedOr
	OpRedXor
	OpLNot // logical not (1-bit)
	OpAnd
	OpOr
	OpXor
	OpXnor
	OpAdd
	OpSub
	OpMul
	OpShl
	OpShr
	OpEq
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpLAnd
	OpLOr
	OpMux    // args: sel, then, else
	OpConcat // args: MSB-first parts
	OpSlice  // arg 0, Lo..Lo+Width-1 bit range of it
)

var opNames = map[OpKind]string{
	OpConst: "const", OpInput: "input", OpRegQ: "regq", OpNot: "not",
	OpNeg: "neg", OpRedAnd: "redand", OpRedOr: "redor", OpRedXor: "redxor",
	OpLNot: "lnot", OpAnd: "and", OpOr: "or", OpXor: "xor", OpXnor: "xnor",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpShl: "shl", OpShr: "shr",
	OpEq: "eq", OpNeq: "neq", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpLAnd: "land", OpLOr: "lor", OpMux: "mux", OpConcat: "concat", OpSlice: "slice",
}

func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Node is one word-level IR node.
type Node struct {
	Kind  OpKind
	Width int
	Args  []NodeID
	Const uint64 // OpConst value
	Sig   SigID  // OpInput / OpRegQ signal
	Lo    int    // OpSlice low bit
}

// Reg is a word-level register: Q is its output node, D the next-state node.
type Reg struct {
	Sig   SigID
	Q     NodeID
	D     NodeID
	Clock string
}

// Output is a top-level output port binding.
type Output struct {
	Sig  SigID
	Node NodeID
}

// Design is the flat word-level IR of an elaborated top module.
type Design struct {
	Name     string
	Signals  []Signal
	Nodes    []Node
	Regs     []Reg
	Outputs  []Output
	Clocks   []string
	Warnings []string

	sigByName map[string]SigID
	hash      map[nodeKey]NodeID
}

type nodeKey struct {
	kind  OpKind
	width int
	a0    NodeID
	a1    NodeID
	a2    NodeID
	cval  uint64
	sig   SigID
	lo    int
	nargs int
	extra string // for concat with >3 args
}

func newDesign(name string) *Design {
	return &Design{
		Name:      name,
		sigByName: map[string]SigID{},
		hash:      map[nodeKey]NodeID{},
	}
}

// SignalID returns the id of a signal by flattened name.
func (d *Design) SignalID(name string) (SigID, bool) {
	id, ok := d.sigByName[name]
	return id, ok
}

// NumNodes returns the node count.
func (d *Design) NumNodes() int { return len(d.Nodes) }

func (d *Design) addSignal(s Signal) SigID {
	id := SigID(len(d.Signals))
	d.Signals = append(d.Signals, s)
	d.sigByName[s.Name] = id
	return id
}

func (d *Design) key(n Node) nodeKey {
	k := nodeKey{kind: n.Kind, width: n.Width, cval: n.Const, sig: n.Sig,
		lo: n.Lo, nargs: len(n.Args), a0: InvalidNode, a1: InvalidNode, a2: InvalidNode}
	switch {
	case len(n.Args) > 3:
		b := make([]byte, 0, len(n.Args)*4)
		for _, a := range n.Args {
			b = append(b, byte(a), byte(a>>8), byte(a>>16), byte(a>>24))
		}
		k.extra = string(b)
	default:
		if len(n.Args) > 0 {
			k.a0 = n.Args[0]
		}
		if len(n.Args) > 1 {
			k.a1 = n.Args[1]
		}
		if len(n.Args) > 2 {
			k.a2 = n.Args[2]
		}
	}
	return k
}

// add inserts a node with structural hashing and returns its id.
func (d *Design) add(n Node) NodeID {
	if n.Width <= 0 {
		panic(fmt.Sprintf("elab: node %v with width %d", n.Kind, n.Width))
	}
	// RegQ nodes are never merged: each register is distinct state.
	if n.Kind != OpRegQ {
		k := d.key(n)
		if id, ok := d.hash[k]; ok {
			return id
		}
		id := NodeID(len(d.Nodes))
		d.Nodes = append(d.Nodes, n)
		d.hash[k] = id
		return id
	}
	id := NodeID(len(d.Nodes))
	d.Nodes = append(d.Nodes, n)
	return id
}

// Constant returns a constant node of the given width.
func (d *Design) Constant(val uint64, width int) NodeID {
	if width < 64 {
		val &= (1 << uint(width)) - 1
	}
	return d.add(Node{Kind: OpConst, Width: width, Const: val})
}

// Stats summarizes the design for reports.
type Stats struct {
	Signals int
	Nodes   int
	Regs    int
	RegBits int
	Inputs  int
	Outputs int
}

// Stats computes summary statistics.
func (d *Design) Stats() Stats {
	st := Stats{Signals: len(d.Signals), Nodes: len(d.Nodes), Regs: len(d.Regs), Outputs: len(d.Outputs)}
	for _, r := range d.Regs {
		st.RegBits += d.Signals[r.Sig].Width
	}
	for _, s := range d.Signals {
		if s.IsInput {
			st.Inputs++
		}
	}
	return st
}
