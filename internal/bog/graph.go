// Package bog implements the Boolean Operator Graph (BOG) of RTL-Timer: a
// universal bit-level RTL representation produced by bit-blasting the
// word-level IR (package elab). A BOG can be specialized into the paper's
// four concrete variants — SOG, AIG, AIMG and XAG — by operator-selection
// rewriting. The graph doubles as a "pseudo netlist": registers and
// operators are treated as pseudo standard cells with delays from package
// liberty, enabling pseudo-STA directly on the RTL.
package bog

import "fmt"

// Op is a bit-level operator.
type Op uint8

// Bit-level operator kinds. Const0/Const1 are the two constant nodes,
// Input a primary-input bit, RegQ a register output bit. The remaining
// operators form the BOG alphabet; each variant restricts which are
// allowed.
const (
	Const0 Op = iota
	Const1
	Input
	RegQ
	Not
	And
	Or
	Xor
	Mux // Fanin: [sel, then, else]
	numOps
)

var opNames = [numOps]string{"const0", "const1", "input", "regq", "not", "and", "or", "xor", "mux"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// NodeID indexes a node in a Graph. Nodes are stored in topological order:
// every fanin id is smaller than the node's own id.
type NodeID int32

// Nil marks an unused fanin slot.
const Nil NodeID = -1

// Node is one bit-level graph node.
type Node struct {
	Op    Op
	Fanin [3]NodeID
	Sig   int32 // Input/RegQ: signal table index
	Bit   int32 // Input/RegQ: bit within the signal
}

// NumFanin returns the number of used fanin slots.
func (n *Node) NumFanin() int {
	switch n.Op {
	case Const0, Const1, Input, RegQ:
		return 0
	case Not:
		return 1
	case And, Or, Xor:
		return 2
	case Mux:
		return 3
	}
	return 0
}

// Variant identifies a concrete BOG specialization.
type Variant uint8

// The four representation variants explored by RTL-Timer (paper §3.1).
const (
	SOG  Variant = iota // simple-operator graph: AND, OR, XOR, NOT, MUX
	AIG                 // and-inverter graph: AND, NOT
	AIMG                // and-inverter-mux graph: AND, NOT, MUX
	XAG                 // xor-and graph: XOR, AND, NOT
	NumVariants
)

var variantNames = [NumVariants]string{"SOG", "AIG", "AIMG", "XAG"}

func (v Variant) String() string {
	if int(v) < len(variantNames) {
		return variantNames[v]
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Variants lists all four variants in paper order.
func Variants() []Variant { return []Variant{SOG, AIG, AIMG, XAG} }

// allows reports whether the variant's operator alphabet contains op.
func (v Variant) allows(op Op) bool {
	switch op {
	case Const0, Const1, Input, RegQ, Not, And:
		return true
	case Or:
		return v == SOG
	case Xor:
		return v == SOG || v == XAG
	case Mux:
		return v == SOG || v == AIMG
	}
	return false
}

// SignalRef names a signal bit of the original design.
type SignalRef struct {
	Signal string // flattened RTL signal name
	Bit    int
}

func (r SignalRef) String() string { return fmt.Sprintf("%s[%d]", r.Signal, r.Bit) }

// Endpoint is a timing endpoint: a register-bit D pin (or a primary output
// bit, see paper footnote 2).
type Endpoint struct {
	Ref  SignalRef
	D    NodeID // node driving the endpoint
	Q    NodeID // corresponding RegQ node (Nil for POs)
	IsPO bool
}

// Graph is a bit-level Boolean operator graph.
//
// Only a graph under construction carries a structural-hash index, which
// the gate constructors use to dedup: Build drops it before returning, and
// Clone and UnmarshalGraph never make one. The first structural
// construction on such a graph rebuilds it from the node array.
type Graph struct {
	Design    string
	Variant   Variant
	Nodes     []Node
	Inputs    []SignalRef // primary-input bits, in input order
	Endpoints []Endpoint

	// SigNames maps Node.Sig to flattened signal names (shared table for
	// inputs and registers).
	SigNames []string

	// index is the structural-hash table: open addressing with linear
	// probing over a power-of-two array of node id + 1, 0 marking an empty
	// slot. A slot's key is its node's current structure, read from Nodes,
	// so the table stores nothing else. indexed counts occupied slots.
	index   []int32
	indexed int
}

// minIndexSlots is the size of a new structural-hash table.
const minIndexSlots = 64

// NewGraph returns an empty graph of the given variant with the two
// constant nodes pre-created (ids 0 and 1).
func NewGraph(design string, v Variant) *Graph {
	g := &Graph{Design: design, Variant: v, index: make([]int32, minIndexSlots)}
	g.Nodes = append(g.Nodes, Node{Op: Const0, Fanin: [3]NodeID{Nil, Nil, Nil}})
	g.Nodes = append(g.Nodes, Node{Op: Const1, Fanin: [3]NodeID{Nil, Nil, Nil}})
	return g
}

// Zero and One return the constant node ids.
func (g *Graph) Zero() NodeID { return 0 }

// One returns the constant-1 node.
func (g *Graph) One() NodeID { return 1 }

// NumNodes returns the total node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// CombNodes counts combinational operator nodes (pseudo cells).
func (g *Graph) CombNodes() int {
	n := 0
	for i := range g.Nodes {
		switch g.Nodes[i].Op {
		case Not, And, Or, Xor, Mux:
			n++
		}
	}
	return n
}

// SeqNodes counts register bits.
func (g *Graph) SeqNodes() int {
	n := 0
	for i := range g.Nodes {
		if g.Nodes[i].Op == RegQ {
			n++
		}
	}
	return n
}

// AddSigName interns a signal name, returning its table index.
func (g *Graph) AddSigName(name string) int32 {
	g.SigNames = append(g.SigNames, name)
	return int32(len(g.SigNames) - 1)
}

// hashed reports whether nodes of op are entered in the structural-hash
// index. Inputs and register outputs are identified by their signal bit
// and never dedup.
func hashed(op Op) bool { return op != Input && op != RegQ }

// structHash mixes every field of n into a slot hash. It is seedless, so
// a graph's table layout is the same on every run.
func structHash(n *Node) uint64 {
	h := uint64(uint32(n.Fanin[0])) | uint64(uint32(n.Fanin[1]))<<32
	h = h*0x9e3779b97f4a7c15 ^ (uint64(uint32(n.Fanin[2])) | uint64(n.Op)<<32)
	h = h*0x9e3779b97f4a7c15 ^ (uint64(uint32(n.Sig)) | uint64(uint32(n.Bit))<<32)
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>32
}

// findSlot probes for n's structure. It returns the slot holding a node
// equal to n and that node's id, or the empty slot where n would be
// entered and Nil.
func (g *Graph) findSlot(n *Node) (int, NodeID) {
	mask := len(g.index) - 1
	i := int(structHash(n)) & mask
	for {
		e := g.index[i]
		if e == 0 {
			return i, Nil
		}
		if g.Nodes[e-1] == *n {
			return i, NodeID(e - 1)
		}
		i = (i + 1) & mask
	}
}

// enter stores id in the empty slot i and doubles the table once it is
// more than three-quarters full.
func (g *Graph) enter(i int, id NodeID) {
	g.index[i] = int32(id) + 1
	g.indexed++
	if 4*g.indexed > 3*len(g.index) {
		old := g.index
		g.index = make([]int32, 2*len(old))
		mask := len(g.index) - 1
		for _, e := range old {
			if e == 0 {
				continue
			}
			// Entries are distinct structures: probe for a free slot only.
			j := int(structHash(&g.Nodes[e-1])) & mask
			for g.index[j] != 0 {
				j = (j + 1) & mask
			}
			g.index[j] = e
		}
	}
}

// raw appends n unless the index already holds an equal node, whose id it
// returns instead, rebuilding the index first on a graph that has none.
// Input and RegQ nodes always append and are never indexed.
func (g *Graph) raw(n Node) NodeID {
	if !hashed(n.Op) {
		g.Nodes = append(g.Nodes, n)
		return NodeID(len(g.Nodes) - 1)
	}
	if g.index == nil {
		g.rebuildHash()
	}
	i, id := g.findSlot(&n)
	if id != Nil {
		return id
	}
	id = NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, n)
	g.enter(i, id)
	return id
}

// rebuildHash reconstructs the structural-hash index from the node array,
// keeping the first occurrence of each structure, so construction on a
// built, decoded or freshly cloned graph dedups exactly as it did during
// the build.
func (g *Graph) rebuildHash() {
	size := minIndexSlots
	for 3*size < 4*len(g.Nodes) {
		size *= 2
	}
	g.index, g.indexed = make([]int32, size), 0
	for i := range g.Nodes {
		if !hashed(g.Nodes[i].Op) {
			continue
		}
		if j, id := g.findSlot(&g.Nodes[i]); id == Nil {
			g.enter(j, NodeID(i))
		}
	}
}

// NewInput creates a primary-input bit node.
func (g *Graph) NewInput(sig int32, bit int) NodeID {
	return g.raw(Node{Op: Input, Fanin: [3]NodeID{Nil, Nil, Nil}, Sig: sig, Bit: int32(bit)})
}

// NewRegQ creates a register-output bit node.
func (g *Graph) NewRegQ(sig int32, bit int) NodeID {
	return g.raw(Node{Op: RegQ, Fanin: [3]NodeID{Nil, Nil, Nil}, Sig: sig, Bit: int32(bit)})
}

// NotOf builds NOT(a) with simplification.
func (g *Graph) NotOf(a NodeID) NodeID {
	switch {
	case a == g.Zero():
		return g.One()
	case a == g.One():
		return g.Zero()
	}
	if g.Nodes[a].Op == Not {
		return g.Nodes[a].Fanin[0]
	}
	return g.raw(Node{Op: Not, Fanin: [3]NodeID{a, Nil, Nil}})
}

// AndOf builds AND(a, b) with simplification.
func (g *Graph) AndOf(a, b NodeID) NodeID {
	if a > b {
		a, b = b, a
	}
	switch {
	case a == g.Zero():
		return g.Zero()
	case a == g.One():
		return b
	case a == b:
		return a
	}
	// a & ~a = 0
	if g.Nodes[b].Op == Not && g.Nodes[b].Fanin[0] == a {
		return g.Zero()
	}
	if g.Nodes[a].Op == Not && g.Nodes[a].Fanin[0] == b {
		return g.Zero()
	}
	return g.raw(Node{Op: And, Fanin: [3]NodeID{a, b, Nil}})
}

// OrOf builds OR(a, b), rewriting per the variant when OR is not allowed.
func (g *Graph) OrOf(a, b NodeID) NodeID {
	if a > b {
		a, b = b, a
	}
	switch {
	case a == g.One() || b == g.One():
		return g.One()
	case a == g.Zero():
		return b
	case a == b:
		return a
	}
	if g.Nodes[b].Op == Not && g.Nodes[b].Fanin[0] == a {
		return g.One()
	}
	if g.Nodes[a].Op == Not && g.Nodes[a].Fanin[0] == b {
		return g.One()
	}
	if g.Variant.allows(Or) {
		return g.raw(Node{Op: Or, Fanin: [3]NodeID{a, b, Nil}})
	}
	switch g.Variant {
	case AIMG:
		// or(a,b) = mux(a, 1, b)
		return g.MuxOf(a, g.One(), b)
	case XAG:
		// or(a,b) = a ^ b ^ (a & b)
		return g.XorOf(g.XorOf(a, b), g.AndOf(a, b))
	default: // AIG
		return g.NotOf(g.AndOf(g.NotOf(a), g.NotOf(b)))
	}
}

// XorOf builds XOR(a, b), rewriting per the variant when XOR is not allowed.
func (g *Graph) XorOf(a, b NodeID) NodeID {
	if a > b {
		a, b = b, a
	}
	switch {
	case a == b:
		return g.Zero()
	case a == g.Zero():
		return b
	case a == g.One():
		return g.NotOf(b)
	}
	if g.Nodes[b].Op == Not && g.Nodes[b].Fanin[0] == a {
		return g.One()
	}
	if g.Variant.allows(Xor) {
		return g.raw(Node{Op: Xor, Fanin: [3]NodeID{a, b, Nil}})
	}
	switch g.Variant {
	case AIMG:
		// xor(a,b) = mux(a, ~b, b)
		return g.MuxOf(a, g.NotOf(b), b)
	default: // AIG
		// xor(a,b) = ~(~(a & ~b) & ~(~a & b))
		t1 := g.AndOf(a, g.NotOf(b))
		t2 := g.AndOf(g.NotOf(a), b)
		return g.NotOf(g.AndOf(g.NotOf(t1), g.NotOf(t2)))
	}
}

// MuxOf builds MUX(sel ? t : e), rewriting per the variant when MUX is not
// allowed.
func (g *Graph) MuxOf(sel, t, e NodeID) NodeID {
	switch {
	case sel == g.One():
		return t
	case sel == g.Zero():
		return e
	case t == e:
		return t
	}
	if t == g.One() && e == g.Zero() {
		return sel
	}
	if t == g.Zero() && e == g.One() {
		return g.NotOf(sel)
	}
	if g.Variant.allows(Mux) {
		if t == g.Zero() {
			return g.AndOf(g.NotOf(sel), e)
		}
		if e == g.Zero() {
			return g.AndOf(sel, t)
		}
		return g.raw(Node{Op: Mux, Fanin: [3]NodeID{sel, t, e}})
	}
	switch g.Variant {
	case XAG:
		// mux(s,t,e) = e ^ (s & (t ^ e))
		return g.XorOf(e, g.AndOf(sel, g.XorOf(t, e)))
	default: // AIG
		return g.OrOf(g.AndOf(sel, t), g.AndOf(g.NotOf(sel), e))
	}
}

// XnorOf builds XNOR(a, b).
func (g *Graph) XnorOf(a, b NodeID) NodeID { return g.NotOf(g.XorOf(a, b)) }

// NandOf builds NAND(a, b).
func (g *Graph) NandOf(a, b NodeID) NodeID { return g.NotOf(g.AndOf(a, b)) }

// FanoutCounts returns the fanout count of every node.
func (g *Graph) FanoutCounts() []int32 {
	fo := make([]int32, len(g.Nodes))
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for j := 0; j < n.NumFanin(); j++ {
			fo[n.Fanin[j]]++
		}
	}
	return fo
}

// Levels returns each node's logic level: sources are level 0, operators
// are 1 + max(fanin levels).
func (g *Graph) Levels() []int32 {
	lv := make([]int32, len(g.Nodes))
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.NumFanin() == 0 {
			lv[i] = 0
			continue
		}
		best := int32(0)
		for j := 0; j < n.NumFanin(); j++ {
			if l := lv[n.Fanin[j]]; l > best {
				best = l
			}
		}
		lv[i] = best + 1
	}
	return lv
}

// Depth returns the maximum level over all endpoints.
func (g *Graph) Depth() int {
	lv := g.Levels()
	best := int32(0)
	for _, ep := range g.Endpoints {
		if l := lv[ep.D]; l > best {
			best = l
		}
	}
	return int(best)
}

// Check validates structural invariants: topological node order, fanin
// bounds, variant alphabet compliance, endpoint validity. Build and
// UnmarshalGraph run it on every graph they return.
func (g *Graph) Check() error {
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if !g.Variant.allows(n.Op) {
			return fmt.Errorf("bog: node %d op %v not allowed in %v", i, n.Op, g.Variant)
		}
		for j := 0; j < n.NumFanin(); j++ {
			f := n.Fanin[j]
			if f < 0 || f >= NodeID(i) {
				return fmt.Errorf("bog: node %d fanin %d out of topological order (%d)", i, j, f)
			}
		}
	}
	for _, ep := range g.Endpoints {
		if ep.D < 0 || int(ep.D) >= len(g.Nodes) {
			return fmt.Errorf("bog: endpoint %v has invalid driver %d", ep.Ref, ep.D)
		}
		if !ep.IsPO {
			if ep.Q < 0 || int(ep.Q) >= len(g.Nodes) || g.Nodes[ep.Q].Op != RegQ {
				return fmt.Errorf("bog: endpoint %v has invalid Q node", ep.Ref)
			}
		}
	}
	return nil
}
