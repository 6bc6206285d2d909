package bog

import (
	"fmt"

	"rtltimer/internal/elab"
)

// Build bit-blasts the word-level design into a BOG of the requested
// variant. The variant's operator alphabet is enforced during construction:
// gate builders rewrite disallowed operators on the fly, so a single pass
// produces any of SOG, AIG, AIMG or XAG. The returned graph carries no
// structural-hash index.
func Build(d *elab.Design, v Variant) (*Graph, error) {
	b := &blaster{
		g:      NewGraph(d.Name, v),
		d:      d,
		bits:   make([][]NodeID, len(d.Nodes)),
		done:   make([]bool, len(d.Nodes)),
		sigIdx: map[elab.SigID]int32{},
	}
	// Word nodes are appended bottom-up by the elaborator except for
	// register D pins, which may reference later nodes through RegQ; RegQ
	// has no fanin so a single in-order pass still works.
	for id := range d.Nodes {
		if err := b.blast(elab.NodeID(id)); err != nil {
			return nil, err
		}
	}
	// Register endpoints.
	for _, r := range d.Regs {
		sig := d.Signals[r.Sig]
		qBits := b.bits[r.Q]
		dBits := b.bits[r.D]
		if len(dBits) != sig.Width || len(qBits) != sig.Width {
			return nil, fmt.Errorf("bog: register %s width mismatch (%d/%d/%d)", sig.Name, sig.Width, len(dBits), len(qBits))
		}
		for bit := 0; bit < sig.Width; bit++ {
			b.g.Endpoints = append(b.g.Endpoints, Endpoint{
				Ref: SignalRef{Signal: sig.Name, Bit: bit},
				D:   dBits[bit],
				Q:   qBits[bit],
			})
		}
	}
	// Primary-output endpoints (paper footnote 2: a tiny portion of
	// endpoints are PO pins).
	for _, o := range d.Outputs {
		sig := d.Signals[o.Sig]
		if sig.IsReg {
			continue // already an endpoint through its register
		}
		oBits := b.bits[o.Node]
		for bit := 0; bit < sig.Width && bit < len(oBits); bit++ {
			b.g.Endpoints = append(b.g.Endpoints, Endpoint{
				Ref:  SignalRef{Signal: sig.Name, Bit: bit},
				D:    oBits[bit],
				Q:    Nil,
				IsPO: true,
			})
		}
	}
	if err := b.g.Check(); err != nil {
		return nil, err
	}
	// The index only serves construction. Dropping it keeps resident
	// graphs at their node arrays; raw leaves every hashed structure
	// exactly once, so a later rebuild yields the same dedup.
	b.g.index, b.g.indexed = nil, 0
	return b.g, nil
}

// BuildAll builds all four variants of a design.
func BuildAll(d *elab.Design) (map[Variant]*Graph, error) {
	out := make(map[Variant]*Graph, NumVariants)
	for _, v := range Variants() {
		g, err := Build(d, v)
		if err != nil {
			return nil, err
		}
		out[v] = g
	}
	return out, nil
}

type blaster struct {
	g      *Graph
	d      *elab.Design
	bits   [][]NodeID // per word node, LSB-first bit vector
	done   []bool
	sigIdx map[elab.SigID]int32
}

func (b *blaster) sigName(id elab.SigID) int32 {
	if idx, ok := b.sigIdx[id]; ok {
		return idx
	}
	idx := b.g.AddSigName(b.d.Signals[id].Name)
	b.sigIdx[id] = idx
	return idx
}

func (b *blaster) arg(n elab.NodeID) []NodeID { return b.bits[n] }

func (b *blaster) blast(id elab.NodeID) error {
	if b.done[id] {
		return nil
	}
	n := &b.d.Nodes[id]
	w := n.Width
	g := b.g
	var out []NodeID
	switch n.Kind {
	case elab.OpConst:
		out = make([]NodeID, w)
		for i := 0; i < w; i++ {
			if n.Const>>uint(i)&1 == 1 {
				out[i] = g.One()
			} else {
				out[i] = g.Zero()
			}
		}
	case elab.OpInput:
		out = make([]NodeID, w)
		s := b.sigName(n.Sig)
		for i := 0; i < w; i++ {
			out[i] = g.NewInput(s, i)
		}
	case elab.OpRegQ:
		out = make([]NodeID, w)
		s := b.sigName(n.Sig)
		for i := 0; i < w; i++ {
			out[i] = g.NewRegQ(s, i)
		}
	case elab.OpNot:
		a := b.arg(n.Args[0])
		out = mapBits(a, g.NotOf)
	case elab.OpNeg:
		a := b.arg(n.Args[0])
		na := mapBits(a, g.NotOf)
		out, _ = b.addBits(na, b.constBits(0, w), g.One())
	case elab.OpAnd:
		out = zipBits(b.arg(n.Args[0]), b.arg(n.Args[1]), g.AndOf)
	case elab.OpOr:
		out = zipBits(b.arg(n.Args[0]), b.arg(n.Args[1]), g.OrOf)
	case elab.OpXor:
		out = zipBits(b.arg(n.Args[0]), b.arg(n.Args[1]), g.XorOf)
	case elab.OpXnor:
		out = zipBits(b.arg(n.Args[0]), b.arg(n.Args[1]), g.XnorOf)
	case elab.OpAdd:
		out, _ = b.addBits(b.arg(n.Args[0]), b.arg(n.Args[1]), g.Zero())
	case elab.OpSub:
		nb := mapBits(b.arg(n.Args[1]), g.NotOf)
		out, _ = b.addBits(b.arg(n.Args[0]), nb, g.One())
	case elab.OpMul:
		out = b.mulBits(b.arg(n.Args[0]), b.arg(n.Args[1]))
	case elab.OpShl:
		out = b.shiftBits(b.arg(n.Args[0]), n.Args[1], true)
	case elab.OpShr:
		out = b.shiftBits(b.arg(n.Args[0]), n.Args[1], false)
	case elab.OpEq:
		out = []NodeID{b.eqBit(b.arg(n.Args[0]), b.arg(n.Args[1]))}
	case elab.OpNeq:
		out = []NodeID{g.NotOf(b.eqBit(b.arg(n.Args[0]), b.arg(n.Args[1])))}
	case elab.OpLt:
		out = []NodeID{b.ltBit(b.arg(n.Args[0]), b.arg(n.Args[1]))}
	case elab.OpLe:
		out = []NodeID{g.NotOf(b.ltBit(b.arg(n.Args[1]), b.arg(n.Args[0])))}
	case elab.OpGt:
		out = []NodeID{b.ltBit(b.arg(n.Args[1]), b.arg(n.Args[0]))}
	case elab.OpGe:
		out = []NodeID{g.NotOf(b.ltBit(b.arg(n.Args[0]), b.arg(n.Args[1])))}
	case elab.OpLAnd:
		out = []NodeID{g.AndOf(b.orReduce(b.arg(n.Args[0])), b.orReduce(b.arg(n.Args[1])))}
	case elab.OpLOr:
		out = []NodeID{g.OrOf(b.orReduce(b.arg(n.Args[0])), b.orReduce(b.arg(n.Args[1])))}
	case elab.OpLNot:
		out = []NodeID{g.NotOf(b.orReduce(b.arg(n.Args[0])))}
	case elab.OpRedAnd:
		out = []NodeID{b.reduce(b.arg(n.Args[0]), g.AndOf)}
	case elab.OpRedOr:
		out = []NodeID{b.orReduce(b.arg(n.Args[0]))}
	case elab.OpRedXor:
		out = []NodeID{b.reduce(b.arg(n.Args[0]), g.XorOf)}
	case elab.OpMux:
		sel := b.arg(n.Args[0])[0]
		t := b.arg(n.Args[1])
		e := b.arg(n.Args[2])
		out = make([]NodeID, w)
		for i := 0; i < w; i++ {
			out[i] = g.MuxOf(sel, t[i], e[i])
		}
	case elab.OpConcat:
		// Args are MSB-first; assemble LSB-first.
		out = make([]NodeID, 0, w)
		for i := len(n.Args) - 1; i >= 0; i-- {
			out = append(out, b.arg(n.Args[i])...)
		}
	case elab.OpSlice:
		a := b.arg(n.Args[0])
		if n.Lo+w > len(a) {
			return fmt.Errorf("bog: slice [%d+%d] of %d-bit node", n.Lo, w, len(a))
		}
		out = append([]NodeID(nil), a[n.Lo:n.Lo+w]...)
	default:
		return fmt.Errorf("bog: unsupported word op %v", n.Kind)
	}
	if len(out) != w {
		return fmt.Errorf("bog: node %d (%v): produced %d bits, want %d", id, n.Kind, len(out), w)
	}
	b.bits[id] = out
	b.done[id] = true
	return nil
}

func (b *blaster) constBits(val uint64, w int) []NodeID {
	out := make([]NodeID, w)
	for i := 0; i < w; i++ {
		if val>>uint(i)&1 == 1 {
			out[i] = b.g.One()
		} else {
			out[i] = b.g.Zero()
		}
	}
	return out
}

func mapBits(a []NodeID, f func(NodeID) NodeID) []NodeID {
	out := make([]NodeID, len(a))
	for i, x := range a {
		out[i] = f(x)
	}
	return out
}

func zipBits(a, b []NodeID, f func(NodeID, NodeID) NodeID) []NodeID {
	out := make([]NodeID, len(a))
	for i := range a {
		out[i] = f(a[i], b[i])
	}
	return out
}

// addBits is a ripple-carry adder; returns sum (width of a) and carry out.
func (b *blaster) addBits(a, c []NodeID, cin NodeID) ([]NodeID, NodeID) {
	g := b.g
	out := make([]NodeID, len(a))
	carry := cin
	for i := range a {
		axb := g.XorOf(a[i], c[i])
		out[i] = g.XorOf(axb, carry)
		// carry' = (a & b) | (carry & (a ^ b))
		carry = g.OrOf(g.AndOf(a[i], c[i]), g.AndOf(carry, axb))
	}
	return out, carry
}

// mulBits is a shift-and-add array multiplier truncated to len(a) bits.
func (b *blaster) mulBits(a, c []NodeID) []NodeID {
	g := b.g
	w := len(a)
	acc := b.constBits(0, w)
	for i := 0; i < w; i++ {
		// Partial product: (a << i) & b[i], truncated to w.
		pp := b.constBits(0, w)
		for j := 0; i+j < w; j++ {
			pp[i+j] = g.AndOf(a[j], c[i])
		}
		acc, _ = b.addBits(acc, pp, g.Zero())
	}
	return acc
}

// eqBit is an equality comparator: AND of per-bit XNORs (balanced tree).
func (b *blaster) eqBit(a, c []NodeID) NodeID {
	terms := zipBits(a, c, b.g.XnorOf)
	return b.reduce(terms, b.g.AndOf)
}

// ltBit computes unsigned a < b as the complement of the carry out of
// a + ~b + 1.
func (b *blaster) ltBit(a, c []NodeID) NodeID {
	nb := mapBits(c, b.g.NotOf)
	_, cout := b.addBits(a, nb, b.g.One())
	return b.g.NotOf(cout)
}

// reduce folds bits with f as a balanced tree (log depth).
func (b *blaster) reduce(bits []NodeID, f func(NodeID, NodeID) NodeID) NodeID {
	switch len(bits) {
	case 0:
		return b.g.Zero()
	case 1:
		return bits[0]
	}
	mid := len(bits) / 2
	return f(b.reduce(bits[:mid], f), b.reduce(bits[mid:], f))
}

func (b *blaster) orReduce(bits []NodeID) NodeID {
	return b.reduce(bits, b.g.OrOf)
}

// shiftBits shifts a by the amount node (constant or variable barrel).
func (b *blaster) shiftBits(a []NodeID, amtID elab.NodeID, left bool) []NodeID {
	g := b.g
	w := len(a)
	amtNode := &b.d.Nodes[amtID]
	if amtNode.Kind == elab.OpConst {
		out := b.constBits(0, w)
		if amtNode.Const >= uint64(w) {
			// Everything shifts out. Checked before the int conversion,
			// which would turn an amount of 2^63 or more negative.
			return out
		}
		sh := int(amtNode.Const)
		for i := 0; i < w; i++ {
			var src int
			if left {
				src = i - sh
			} else {
				src = i + sh
			}
			if src >= 0 && src < w {
				out[i] = a[src]
			}
		}
		return out
	}
	// Variable shift: barrel shifter staged over the amount bits.
	amt := b.arg(amtID)
	cur := append([]NodeID(nil), a...)
	big := g.Zero() // true when the shift amount >= w
	for i, s := range amt {
		step := 1 << uint(i)
		if step >= w {
			big = g.OrOf(big, s)
			continue
		}
		next := make([]NodeID, w)
		for j := 0; j < w; j++ {
			var src int
			if left {
				src = j - step
			} else {
				src = j + step
			}
			shifted := g.Zero()
			if src >= 0 && src < w {
				shifted = cur[src]
			}
			next[j] = g.MuxOf(s, shifted, cur[j])
		}
		cur = next
	}
	if big != g.Zero() {
		nb := g.NotOf(big)
		for j := 0; j < w; j++ {
			cur[j] = g.AndOf(cur[j], nb)
		}
	}
	return cur
}
