// Graph mutation: the edit-delta API behind incremental STA. A finished
// graph changes only through Apply or ApplyFunc running a Delta, an
// ordered script of edits — re-pointing a fanin edge, swapping an
// operator for a same-arity alternative, appending a fresh node. A delta
// has a canonical binary encoding, so deltas can key derived cache entries
// and be replayed deterministically on any clone of the base graph.
//
// CheckDelta is the one edit validator. It accepts only edits that keep
//
//   - topological node order: a fanin is always strictly smaller than the
//     node that reads it, so an edited graph can never contain a cycle and
//     every forward pass stays a single sweep in id order;
//   - the variant alphabet: an edit can only introduce operators the
//     graph's variant allows.
//
// It validates the whole script before the first node is touched, so a
// rejected delta leaves the graph byte-identical, and a successful apply
// returns the inverse script that undoes it. A finished graph carries no
// structural-hash table (only a Builder does), so an edit has no dedup
// state to keep; an edited graph may hold duplicate structures.
package bog

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// EditKind discriminates the delta operations.
type EditKind uint8

// The three delta operations: re-point one fanin edge (which subsumes edge
// removal and insertion in the fixed-arity node layout), replace a node's
// operator with a same-arity alternative (a pseudo-cell swap: it changes
// the node's delay and the load it puts on its fanins), and append a fresh
// operator node.
const (
	EditSetFanin EditKind = iota
	EditSetOp
	EditInsert
	numEditKinds
)

var editKindNames = [numEditKinds]string{"set-fanin", "set-op", "insert"}

func (k EditKind) String() string {
	if int(k) < len(editKindNames) {
		return editKindNames[k]
	}
	return fmt.Sprintf("EditKind(%d)", int(k))
}

// Edit is one graph mutation.
type Edit struct {
	Kind  EditKind
	Node  NodeID    // set-fanin/set-op: target node
	Slot  int32     // set-fanin: fanin slot
	To    NodeID    // set-fanin: new fanin
	Op    Op        // set-op/insert: operator
	Fanin [3]NodeID // insert: fanins (unused slots Nil)
}

// SetFaninEdit re-points fanin slot of node n to `to`.
func SetFaninEdit(n NodeID, slot int, to NodeID) Edit {
	return Edit{Kind: EditSetFanin, Node: n, Slot: int32(slot), To: to}
}

// SetOpEdit replaces node n's operator with a same-arity op.
func SetOpEdit(n NodeID, op Op) Edit {
	return Edit{Kind: EditSetOp, Node: n, Op: op}
}

// InsertEdit appends a fresh operator node with the given fanins. An
// insert never simplifies and never dedups: its id is the node count at
// that point, which is what makes delta scripts that address their own
// insertions deterministic. A set-fanin must point backwards and
// endpoints are immutable, so no existing node can be re-pointed at an
// inserted one: inserted nodes feed only later insertions, and an insert
// perturbs timing through the input load it puts on its fanins. Splicing
// new logic under an existing consumer would need an id-renumbering
// rebuild, which is a full re-bit-blast, not a delta.
func InsertEdit(op Op, fanin ...NodeID) Edit {
	e := Edit{Kind: EditInsert, Op: op, Fanin: [3]NodeID{Nil, Nil, Nil}}
	copy(e.Fanin[:], fanin)
	return e
}

// Delta is an ordered edit script. Edits apply strictly in order; an
// EditInsert makes its node (id = node count at that point) addressable by
// every later edit of the same delta.
type Delta []Edit

// AppendBinary appends the canonical little-endian encoding of the delta
// to buf. Two deltas encode identically iff they are the same script, so
// the encoding is a stable identity for delta-keyed caches.
func (d Delta) AppendBinary(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d)))
	for _, e := range d {
		buf = append(buf, byte(e.Kind), byte(e.Op))
		for _, v := range [...]int32{int32(e.Node), e.Slot, int32(e.To),
			int32(e.Fanin[0]), int32(e.Fanin[1]), int32(e.Fanin[2])} {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	return buf
}

// arity returns the fanin-slot count of an operator.
func arity(op Op) int {
	n := Node{Op: op}
	return n.NumFanin()
}

// isOperator reports whether op is a combinational operator (the only node
// kind edits may target or insert — sources and constants have no fanins
// and identify design boundary signals).
func isOperator(op Op) bool {
	switch op {
	case Not, And, Or, Xor, Mux:
		return true
	}
	return false
}

// CheckDelta validates an entire edit script against the graph without
// touching it, with inserted nodes of the same delta addressable by later
// edits. A set-op never changes arity and CheckDelta tracks inserted
// operators, so validity is decidable without applying anything — which is
// what lets ApplyFunc reject a bad script with the graph byte-identical.
// A set-fanin's new fanin must precede its node, which also rules out
// self-loops; a set-op swaps one combinational operator for another of
// the same arity from the variant's alphabet; an insert appends an
// operator from that alphabet over existing fanins.
func (g *Graph) CheckDelta(d Delta) error {
	nn := NodeID(len(g.Nodes))
	var inserted []Op // ops of nodes the delta appends, ids nn0, nn0+1, ...
	opOf := func(id NodeID) Op {
		if int(id) < len(g.Nodes) {
			return g.Nodes[id].Op
		}
		return inserted[int(id)-len(g.Nodes)]
	}
	for i, e := range d {
		switch e.Kind {
		case EditSetFanin:
			if e.Node < 0 || e.Node >= nn {
				return fmt.Errorf("bog: delta edit %d: set-fanin node %d outside graph of %d nodes", i, e.Node, nn)
			}
			op := opOf(e.Node)
			if ar := arity(op); e.Slot < 0 || int(e.Slot) >= ar {
				return fmt.Errorf("bog: delta edit %d: set-fanin slot %d outside %v node %d's %d fanins", i, e.Slot, op, e.Node, ar)
			}
			if e.To < 0 || e.To >= e.Node {
				return fmt.Errorf("bog: delta edit %d: set-fanin %d -> %d violates topological order", i, e.Node, e.To)
			}
		case EditSetOp:
			if e.Node < 0 || e.Node >= nn {
				return fmt.Errorf("bog: delta edit %d: set-op node %d outside graph of %d nodes", i, e.Node, nn)
			}
			cur := opOf(e.Node)
			if !isOperator(cur) || !isOperator(e.Op) {
				return fmt.Errorf("bog: delta edit %d: set-op %v -> %v: both must be combinational operators", i, cur, e.Op)
			}
			if arity(e.Op) != arity(cur) {
				return fmt.Errorf("bog: delta edit %d: set-op %v -> %v changes arity", i, cur, e.Op)
			}
			if !g.Variant.allows(e.Op) {
				return fmt.Errorf("bog: delta edit %d: operator %v not allowed in %v", i, e.Op, g.Variant)
			}
		case EditInsert:
			if !isOperator(e.Op) {
				return fmt.Errorf("bog: delta edit %d: insert of non-operator %v", i, e.Op)
			}
			if !g.Variant.allows(e.Op) {
				return fmt.Errorf("bog: delta edit %d: insert operator %v not allowed in %v", i, e.Op, g.Variant)
			}
			ar := arity(e.Op)
			for j := 0; j < ar; j++ {
				if e.Fanin[j] < 0 || e.Fanin[j] >= nn {
					return fmt.Errorf("bog: delta edit %d: insert fanin %d (%d) outside graph of %d nodes", i, j, e.Fanin[j], nn)
				}
			}
			for j := ar; j < 3; j++ {
				if e.Fanin[j] != Nil {
					return fmt.Errorf("bog: delta edit %d: insert %v uses fanin slot %d beyond its arity", i, e.Op, j)
				}
			}
			inserted = append(inserted, e.Op)
			nn++
		default:
			return fmt.Errorf("bog: delta edit %d: unknown kind %v", i, e.Kind)
		}
	}
	return nil
}

// ApplyFunc runs the edit script in order and returns the inverse script
// that undoes it: inverse edits in reverse application order, no-op edits
// elided. The delta is validated in full (CheckDelta) before the first
// mutation, so on error the graph is untouched and each is never called.
// Otherwise, after every edit that changed the graph, each (when non-nil)
// receives the edit and its inverse, which points into undo and is valid
// only during the call; an insert has no inverse and comes with nil.
//
// Insertions have no structural inverse — undoing a delta that inserted
// nodes leaves them behind as fanout-free orphans. An orphan cannot reach
// any endpoint, but it still loads its fanins (input capacitance), so undo
// restores timing bit-exactly only for insert-free deltas; with inserts,
// undo restores logical function but the orphans' residual load shifts
// nearby delays.
func (g *Graph) ApplyFunc(d Delta, each func(e Edit, inv *Edit)) (undo Delta, err error) {
	if err := g.CheckDelta(d); err != nil {
		return nil, err
	}
	undo = make(Delta, 0, len(d))
	for _, e := range d {
		n := len(undo)
		switch e.Kind {
		case EditSetFanin:
			f := &g.Nodes[e.Node].Fanin[e.Slot]
			if *f == e.To {
				continue
			}
			undo = append(undo, SetFaninEdit(e.Node, int(e.Slot), *f))
			*f = e.To
		case EditSetOp:
			op := &g.Nodes[e.Node].Op
			if *op == e.Op {
				continue
			}
			undo = append(undo, SetOpEdit(e.Node, *op))
			*op = e.Op
		case EditInsert:
			// CheckDelta requires the slots past the arity to be Nil.
			g.Nodes = append(g.Nodes, Node{Op: e.Op, Fanin: e.Fanin})
		}
		if each != nil {
			var inv *Edit
			if len(undo) > n {
				inv = &undo[n]
			}
			each(e, inv)
		}
	}
	slices.Reverse(undo)
	return undo, nil
}

// Apply is ApplyFunc with no per-edit callback.
func (g *Graph) Apply(d Delta) (undo Delta, err error) { return g.ApplyFunc(d, nil) }

// Clone returns an independent deep copy of the graph: edits to the clone
// never touch the original (the engine's Edit path clones the immutable
// base representation before applying a delta). String contents are
// shared (strings are immutable in Go).
func (g *Graph) Clone() *Graph {
	return &Graph{
		Design:    g.Design,
		Variant:   g.Variant,
		Nodes:     append([]Node(nil), g.Nodes...),
		Inputs:    append([]SignalRef(nil), g.Inputs...),
		Endpoints: append([]Endpoint(nil), g.Endpoints...),
		SigNames:  append([]string(nil), g.SigNames...),
	}
}
