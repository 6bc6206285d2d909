// Binary codec for Graph: a versioned little-endian format built from flat
// arrays (ops, fanin triples, signal indices, interned string table) so
// that encoding is a handful of bulk copies and decoding never chases
// pointers. The format is the persistence substrate of the engine's
// on-disk representation cache; it round-trips a graph exactly (node
// order, signal table order, endpoint order), which the cache's
// determinism contract depends on.
//
// Layout (all integers little-endian):
//
//	magic   [4]byte "BOGC"
//	version uint32  (CodecVersion)
//	variant uint8
//	design  string  (uint32 length + bytes)
//	nNodes  uint32
//	ops     [nNodes]uint8
//	fanin   [3*nNodes]int32   (slot-major per node; Nil = -1)
//	sig     [nNodes]int32
//	bit     [nNodes]int32
//	nSigs   uint32
//	signames [nSigs]string
//	nInputs uint32
//	inputs  [nInputs]{string, int32}          (SignalRef)
//	nEPs    uint32
//	endpoints [nEPs]{string, int32, int32 D, int32 Q, uint8 isPO}
//
// The decoder is defensive: every count is validated against the bytes
// actually remaining before any allocation, every node is checked against
// the variant alphabet and topological order, and any violation yields an
// error — never a panic — so corrupt or truncated cache entries degrade to
// a rebuild (see FuzzGraphDecode).
package bog

import (
	"encoding/binary"
	"fmt"
	"math"
)

// CodecVersion is the current graph wire-format version. Bump it whenever
// the layout, the operator alphabet, or any semantics the decoder relies
// on change; persisted entries from other versions are rejected by
// UnmarshalGraph and rebuilt by the cache.
const CodecVersion = 1

// codecMagic guards against feeding arbitrary files to the decoder.
var codecMagic = [4]byte{'B', 'O', 'G', 'C'}

// MarshalGraph encodes g into the versioned binary format.
func MarshalGraph(g *Graph) []byte {
	n := len(g.Nodes)
	size := 4 + 4 + 1 + strSize(g.Design) + 4 + n + 12*n + 4*n + 4*n + 4
	for _, s := range g.SigNames {
		size += strSize(s)
	}
	size += 4
	for _, in := range g.Inputs {
		size += strSize(in.Signal) + 4
	}
	size += 4
	for _, ep := range g.Endpoints {
		size += strSize(ep.Ref.Signal) + 4 + 4 + 4 + 1
	}
	buf := make([]byte, 0, size)
	buf = append(buf, codecMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, CodecVersion)
	buf = append(buf, byte(g.Variant))
	buf = appendStr(buf, g.Design)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for i := range g.Nodes {
		buf = append(buf, byte(g.Nodes[i].Op))
	}
	for i := range g.Nodes {
		for j := 0; j < 3; j++ {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(g.Nodes[i].Fanin[j]))
		}
	}
	for i := range g.Nodes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(g.Nodes[i].Sig))
	}
	for i := range g.Nodes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(g.Nodes[i].Bit))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(g.SigNames)))
	for _, s := range g.SigNames {
		buf = appendStr(buf, s)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(g.Inputs)))
	for _, in := range g.Inputs {
		buf = appendStr(buf, in.Signal)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(in.Bit)))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(g.Endpoints)))
	for _, ep := range g.Endpoints {
		buf = appendStr(buf, ep.Ref.Signal)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(ep.Ref.Bit)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ep.D))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ep.Q))
		if ep.IsPO {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// UnmarshalGraph decodes a graph produced by MarshalGraph, validating the
// wire format and the structural invariants (topological fanin order,
// variant alphabet, endpoint validity). The returned graph carries no
// structural-hash index, like a built one; the first structural
// construction rebuilds it, so further node construction behaves exactly
// as on the graph that was encoded.
func UnmarshalGraph(data []byte) (*Graph, error) {
	d := &decoder{buf: data}
	var magic [4]byte
	if err := d.bytes(magic[:]); err != nil {
		return nil, err
	}
	if magic != codecMagic {
		return nil, fmt.Errorf("bog: bad codec magic %q", magic[:])
	}
	version, err := d.u32()
	if err != nil {
		return nil, err
	}
	if version != CodecVersion {
		return nil, fmt.Errorf("bog: codec version %d, want %d", version, CodecVersion)
	}
	vb, err := d.u8()
	if err != nil {
		return nil, err
	}
	if vb >= uint8(NumVariants) {
		return nil, fmt.Errorf("bog: unknown variant %d", vb)
	}
	variant := Variant(vb)
	design, err := d.str()
	if err != nil {
		return nil, err
	}
	nNodes, err := d.count(1 + 12 + 4 + 4) // per-node wire cost
	if err != nil {
		return nil, err
	}
	if nNodes < 2 {
		return nil, fmt.Errorf("bog: %d nodes, want at least the two constants", nNodes)
	}
	g := &Graph{Design: design, Variant: variant}
	g.Nodes = make([]Node, nNodes)
	for i := range g.Nodes {
		op, err := d.u8()
		if err != nil {
			return nil, err
		}
		if op >= uint8(numOps) {
			return nil, fmt.Errorf("bog: node %d has unknown op %d", i, op)
		}
		g.Nodes[i].Op = Op(op)
	}
	for i := range g.Nodes {
		for j := 0; j < 3; j++ {
			f, err := d.i32()
			if err != nil {
				return nil, err
			}
			g.Nodes[i].Fanin[j] = NodeID(f)
		}
	}
	for i := range g.Nodes {
		s, err := d.i32()
		if err != nil {
			return nil, err
		}
		g.Nodes[i].Sig = s
	}
	for i := range g.Nodes {
		b, err := d.i32()
		if err != nil {
			return nil, err
		}
		g.Nodes[i].Bit = b
	}
	if g.Nodes[0].Op != Const0 || g.Nodes[1].Op != Const1 {
		return nil, fmt.Errorf("bog: nodes 0/1 are %v/%v, want const0/const1", g.Nodes[0].Op, g.Nodes[1].Op)
	}
	nSigs, err := d.count(4) // minimum string wire cost
	if err != nil {
		return nil, err
	}
	g.SigNames = make([]string, nSigs)
	for i := range g.SigNames {
		if g.SigNames[i], err = d.str(); err != nil {
			return nil, err
		}
	}
	nInputs, err := d.count(4 + 4)
	if err != nil {
		return nil, err
	}
	if nInputs > 0 {
		g.Inputs = make([]SignalRef, nInputs)
		for i := range g.Inputs {
			if g.Inputs[i].Signal, err = d.str(); err != nil {
				return nil, err
			}
			b, err := d.i32()
			if err != nil {
				return nil, err
			}
			g.Inputs[i].Bit = int(b)
		}
	}
	nEPs, err := d.count(4 + 4 + 4 + 4 + 1)
	if err != nil {
		return nil, err
	}
	if nEPs > 0 {
		g.Endpoints = make([]Endpoint, nEPs)
		for i := range g.Endpoints {
			ep := &g.Endpoints[i]
			if ep.Ref.Signal, err = d.str(); err != nil {
				return nil, err
			}
			b, err := d.i32()
			if err != nil {
				return nil, err
			}
			ep.Ref.Bit = int(b)
			dd, err := d.i32()
			if err != nil {
				return nil, err
			}
			ep.D = NodeID(dd)
			q, err := d.i32()
			if err != nil {
				return nil, err
			}
			ep.Q = NodeID(q)
			po, err := d.u8()
			if err != nil {
				return nil, err
			}
			if po > 1 {
				return nil, fmt.Errorf("bog: endpoint %d has isPO byte %d", i, po)
			}
			ep.IsPO = po == 1
			// Built graphs give primary-output endpoints no Q node; enforce
			// that here since Check only validates Q for register endpoints.
			if ep.IsPO && ep.Q != Nil {
				return nil, fmt.Errorf("bog: PO endpoint %d has Q node %d, want none", i, ep.Q)
			}
		}
	}
	if len(d.buf) != d.pos {
		return nil, fmt.Errorf("bog: %d trailing bytes after graph", len(d.buf)-d.pos)
	}
	// Validate node-level invariants beyond what Check covers: unused fanin
	// slots must be Nil and signal indices must point into the table, so a
	// decoded graph is indistinguishable from a built one.
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		k := nd.NumFanin()
		for j := k; j < 3; j++ {
			if nd.Fanin[j] != Nil {
				return nil, fmt.Errorf("bog: node %d has non-nil unused fanin slot %d", i, j)
			}
		}
		switch nd.Op {
		case Input, RegQ:
			if nd.Sig < 0 || int(nd.Sig) >= len(g.SigNames) {
				return nil, fmt.Errorf("bog: node %d signal index %d outside table of %d", i, nd.Sig, len(g.SigNames))
			}
		}
	}
	if err := g.Check(); err != nil {
		return nil, err
	}
	// The structural-hash index is left nil: analysis-only consumers (the
	// cache's warm path) never need it, and Graph.raw rebuilds it lazily on
	// the first structural construction.
	return g, nil
}

func strSize(s string) int { return 4 + len(s) }

func appendStr(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// decoder is a bounds-checked cursor over the wire bytes.
type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) remaining() int { return len(d.buf) - d.pos }

func (d *decoder) bytes(dst []byte) error {
	if d.remaining() < len(dst) {
		return fmt.Errorf("bog: truncated input (%d bytes missing)", len(dst)-d.remaining())
	}
	copy(dst, d.buf[d.pos:])
	d.pos += len(dst)
	return nil
}

func (d *decoder) u8() (uint8, error) {
	if d.remaining() < 1 {
		return 0, fmt.Errorf("bog: truncated input")
	}
	b := d.buf[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.remaining() < 4 {
		return 0, fmt.Errorf("bog: truncated input")
	}
	v := binary.LittleEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *decoder) i32() (int32, error) {
	v, err := d.u32()
	return int32(v), err
}

// count reads an element count and validates it against the bytes actually
// remaining (at minSize bytes per element), so a corrupt length cannot
// trigger a huge allocation.
func (d *decoder) count(minSize int) (int, error) {
	v, err := d.u32()
	if err != nil {
		return 0, err
	}
	if v > uint32(math.MaxInt32) || int(v) > d.remaining()/minSize {
		return 0, fmt.Errorf("bog: count %d exceeds remaining input", v)
	}
	return int(v), nil
}

func (d *decoder) str() (string, error) {
	n, err := d.count(1)
	if err != nil {
		return "", err
	}
	// A zero-length string costs 0 remaining bytes; count's /1 check covers
	// the rest.
	s := string(d.buf[d.pos : d.pos+n])
	d.pos += n
	return s, nil
}
