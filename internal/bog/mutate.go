// Graph mutation: the edit-delta API behind incremental STA. A frozen
// graph can be edited in place — re-pointing a fanin edge, swapping an
// operator for a same-arity alternative, appending a fresh node — and an
// ordered script of such edits (a Delta) has a canonical binary encoding,
// so deltas can key derived cache entries and be replayed deterministically
// on any clone of the base graph.
//
// Invariants preserved by every edit:
//
//   - topological node order: a fanin is always strictly smaller than the
//     node that reads it, so a mutated graph can never contain a cycle and
//     every forward pass stays a single sweep in id order;
//   - variant alphabet: an edit can only introduce operators the graph's
//     variant allows;
//   - no stale dedup: every edit drops the graph's structural-hash index,
//     so no entry can describe a node's old structure. The next structural
//     construction rebuilds the index from the node array, keeping the
//     first owner of each structure, exactly as on a built, cloned or
//     decoded graph. Edits may create duplicate structures (InsertNode
//     deliberately skips dedup so a delta's node ids stay deterministic);
//     the rebuilt index then resolves them to the lowest id.
//
// Apply raises the per-edit primitives to delta granularity: the script is
// validated in full (CheckDelta) before the first node is touched, so a
// rejected delta leaves the graph byte-identical, and a successful Apply
// returns the inverse script that undoes it.
package bog

import (
	"encoding/binary"
	"fmt"
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
	Node  NodeID    // SetFanin/SetOp: target node
	Slot  int32     // SetFanin: fanin slot
	To    NodeID    // SetFanin: new fanin
	Op    Op        // SetOp/Insert: operator
	Fanin [3]NodeID // Insert: fanins (unused slots Nil)
}

// SetFaninEdit re-points fanin slot of node n to `to`.
func SetFaninEdit(n NodeID, slot int, to NodeID) Edit {
	return Edit{Kind: EditSetFanin, Node: n, Slot: int32(slot), To: to}
}

// SetOpEdit replaces node n's operator with a same-arity op.
func SetOpEdit(n NodeID, op Op) Edit {
	return Edit{Kind: EditSetOp, Node: n, Op: op}
}

// InsertEdit appends a fresh operator node with the given fanins.
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

// dropIndex releases the structural-hash index after an edit; raw
// rebuilds it from the node array on the next structural construction.
func (g *Graph) dropIndex() { g.index, g.indexed = nil, 0 }

// SetFanin re-points fanin slot of node n to `to`. The new fanin must
// precede n (topological order, which also rules out self-loops).
func (g *Graph) SetFanin(n NodeID, slot int, to NodeID) error {
	if n < 0 || int(n) >= len(g.Nodes) {
		return fmt.Errorf("bog: set-fanin node %d outside graph of %d nodes", n, len(g.Nodes))
	}
	nd := &g.Nodes[n]
	if slot < 0 || slot >= nd.NumFanin() {
		return fmt.Errorf("bog: set-fanin slot %d outside %v node %d's %d fanins", slot, nd.Op, n, nd.NumFanin())
	}
	if to < 0 || to >= n {
		return fmt.Errorf("bog: set-fanin %d -> %d violates topological order", n, to)
	}
	if nd.Fanin[slot] == to {
		return nil
	}
	nd.Fanin[slot] = to
	g.dropIndex()
	return nil
}

// SetOp replaces node n's operator with a same-arity operator from the
// variant's alphabet. Connectivity is untouched.
func (g *Graph) SetOp(n NodeID, op Op) error {
	if n < 0 || int(n) >= len(g.Nodes) {
		return fmt.Errorf("bog: set-op node %d outside graph of %d nodes", n, len(g.Nodes))
	}
	nd := &g.Nodes[n]
	if !isOperator(nd.Op) || !isOperator(op) {
		return fmt.Errorf("bog: set-op %v -> %v: both must be combinational operators", nd.Op, op)
	}
	if arity(op) != nd.NumFanin() {
		return fmt.Errorf("bog: set-op %v -> %v changes arity %d -> %d", nd.Op, op, nd.NumFanin(), arity(op))
	}
	if !g.Variant.allows(op) {
		return fmt.Errorf("bog: set-op operator %v not allowed in %v", op, g.Variant)
	}
	if nd.Op == op {
		return nil
	}
	nd.Op = op
	g.dropIndex()
	return nil
}

// InsertNode appends a fresh operator node with the given fanins and
// returns its id. Unlike the structural constructors (AndOf, OrOf, ...),
// InsertNode never simplifies and never dedups: the new id is always the
// previous node count, which is what makes delta scripts that address
// their own insertions deterministic.
//
// Reachability caveat: because SetFanin enforces topological order
// (fanin id < node id) and endpoints are immutable, a pre-existing node
// can never be re-pointed at an inserted node — inserted subtrees can
// only feed later insertions, never an existing cone or endpoint. Within
// the edit-delta model, insertion therefore perturbs timing through the
// input load it puts on its fanins; splicing new logic under an existing
// consumer would need an id-renumbering rebuild, which is a full
// re-bit-blast, not a delta.
func (g *Graph) InsertNode(op Op, fanin ...NodeID) (NodeID, error) {
	if !isOperator(op) {
		return Nil, fmt.Errorf("bog: insert of non-operator %v", op)
	}
	if !g.Variant.allows(op) {
		return Nil, fmt.Errorf("bog: insert operator %v not allowed in %v", op, g.Variant)
	}
	if len(fanin) != arity(op) {
		return Nil, fmt.Errorf("bog: insert %v with %d fanins, want %d", op, len(fanin), arity(op))
	}
	for i, f := range fanin {
		if f < 0 || int(f) >= len(g.Nodes) {
			return Nil, fmt.Errorf("bog: insert fanin %d (%d) outside graph of %d nodes", i, f, len(g.Nodes))
		}
	}
	nd := Node{Op: op, Fanin: [3]NodeID{Nil, Nil, Nil}}
	copy(nd.Fanin[:], fanin)
	id := NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, nd)
	g.dropIndex()
	return id, nil
}

// CheckDelta validates an entire edit script against the graph without
// touching it: every edit must satisfy the same rules the primitives
// enforce, with inserted nodes of the same delta addressable by later
// edits. SetOp never changes arity and CheckDelta tracks inserted
// operators, so validity is decidable without applying anything — which is
// what lets Apply reject a bad script with the graph byte-identical.
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

// Apply runs the edit script in order and returns the inverse script that
// undoes it (inverse edits in reverse application order, no-op edits
// elided). The delta is validated in full before the first mutation, so on
// error the graph is untouched. Insertions have no structural inverse —
// undoing a delta that inserted nodes leaves them behind as fanout-free
// orphans. An orphan cannot reach any endpoint, but it still loads its
// fanins (input capacitance), so undo restores timing bit-exactly only
// for insert-free deltas; with inserts, undo restores logical function
// but the orphans' residual load shifts nearby delays.
func (g *Graph) Apply(d Delta) (undo Delta, err error) {
	if err := g.CheckDelta(d); err != nil {
		return nil, err
	}
	undo = make(Delta, 0, len(d))
	for _, e := range d {
		switch e.Kind {
		case EditSetFanin:
			old := g.Nodes[e.Node].Fanin[e.Slot]
			if err := g.SetFanin(e.Node, int(e.Slot), e.To); err != nil {
				return nil, err
			}
			if old != e.To {
				undo = append(undo, SetFaninEdit(e.Node, int(e.Slot), old))
			}
		case EditSetOp:
			old := g.Nodes[e.Node].Op
			if err := g.SetOp(e.Node, e.Op); err != nil {
				return nil, err
			}
			if old != e.Op {
				undo = append(undo, SetOpEdit(e.Node, old))
			}
		case EditInsert:
			if _, err := g.InsertNode(e.Op, e.Fanin[:arity(e.Op)]...); err != nil {
				return nil, err
			}
		}
	}
	for i, j := 0, len(undo)-1; i < j; i, j = i+1, j-1 {
		undo[i], undo[j] = undo[j], undo[i]
	}
	return undo, nil
}

// Clone returns an independent deep copy of the graph: edits to the clone
// never touch the original (the engine's Edit path clones the immutable
// base representation before applying a delta). The clone carries no
// structural-hash index, like a built, decoded or edited graph; its first
// structural construction rebuilds one. String contents are shared
// (strings are immutable in Go).
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
