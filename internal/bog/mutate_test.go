package bog

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// checkHashConsistent verifies the structural-hash invariant the edit API
// maintains: every occupied slot holds a hashed node, the occupancy count
// is right, and a probe from each node's current structure ends at its
// own slot, so no entry is stale, none is shadowed by an equal structure
// earlier in its cluster, and no deletion left a hole in a probe run.
// (The converse — every node being indexed — is deliberately not an
// invariant: edits may create duplicate structures, and only the first
// owner of a structure is indexed.)
func checkHashConsistent(t *testing.T, g *Graph) {
	t.Helper()
	if g.index == nil {
		if g.indexed != 0 {
			t.Fatalf("no index, but %d entries counted", g.indexed)
		}
		return
	}
	entries := 0
	for slot, e := range g.index {
		if e == 0 {
			continue
		}
		entries++
		id := NodeID(e - 1)
		if int(id) >= len(g.Nodes) {
			t.Fatalf("slot %d points at node %d outside graph of %d nodes", slot, id, len(g.Nodes))
		}
		if !hashed(g.Nodes[id].Op) {
			t.Fatalf("slot %d indexes %v node %d", slot, g.Nodes[id].Op, id)
		}
		if at, owner := g.findSlot(&g.Nodes[id]); at != slot || owner != id {
			t.Fatalf("slot %d holds node %d %+v, but a probe for its structure ends at slot %d (node %d)", slot, id, g.Nodes[id], at, owner)
		}
	}
	if entries != g.indexed {
		t.Fatalf("%d occupied slots, %d counted", entries, g.indexed)
	}
}

// editableNode returns a combinational node with at least one fanin, or
// Nil if the graph has none.
func editableNode(g *Graph) NodeID {
	for i := len(g.Nodes) - 1; i >= 2; i-- {
		if isOperator(g.Nodes[i].Op) {
			return NodeID(i)
		}
	}
	return Nil
}

func TestSetFaninMaintainsInvariants(t *testing.T) {
	for _, v := range Variants() {
		g := randomGraph(v, 42)
		n := editableNode(g)
		if n == Nil {
			t.Fatalf("%v: no editable node", v)
		}
		old := g.Nodes[n].Fanin[0]
		to := NodeID(0)
		if old == to {
			to = 1
		}
		if err := g.SetFanin(n, 0, to); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if g.Nodes[n].Fanin[0] != to {
			t.Fatalf("%v: fanin not updated", v)
		}
		if err := g.Check(); err != nil {
			t.Fatalf("%v: edited graph invalid: %v", v, err)
		}
		checkHashConsistent(t, g)

		// Rejections: out-of-range node, slot, and topological violations.
		if err := g.SetFanin(NodeID(len(g.Nodes)), 0, 0); err == nil {
			t.Fatalf("%v: out-of-range node accepted", v)
		}
		if err := g.SetFanin(n, 3, 0); err == nil {
			t.Fatalf("%v: out-of-range slot accepted", v)
		}
		if err := g.SetFanin(n, 0, n); err == nil {
			t.Fatalf("%v: self-loop accepted", v)
		}
		if err := g.SetFanin(n, 0, NodeID(len(g.Nodes)-1)+1); err == nil {
			t.Fatalf("%v: forward edge accepted", v)
		}
		if err := g.SetFanin(0, 0, 0); err == nil {
			t.Fatalf("%v: editing a constant's fanin accepted", v)
		}
	}
}

func TestSetOpMaintainsInvariants(t *testing.T) {
	g := randomGraph(SOG, 7)
	var n NodeID = Nil
	for i := range g.Nodes {
		if g.Nodes[i].Op == And {
			n = NodeID(i)
		}
	}
	if n == Nil {
		t.Fatal("no AND node")
	}
	if err := g.SetOp(n, Or); err != nil {
		t.Fatal(err)
	}
	if g.Nodes[n].Op != Or {
		t.Fatal("op not updated")
	}
	if err := g.Check(); err != nil {
		t.Fatalf("edited graph invalid: %v", err)
	}
	checkHashConsistent(t, g)

	if err := g.SetOp(n, Not); err == nil {
		t.Fatal("arity-changing swap accepted")
	}
	if err := g.SetOp(n, Input); err == nil {
		t.Fatal("swap to a source op accepted")
	}
	if err := g.SetOp(0, And); err == nil {
		t.Fatal("swap on a constant accepted")
	}
	aig := randomGraph(AIG, 7)
	an := editableNode(aig)
	if err := aig.SetOp(an, Or); err == nil {
		t.Fatal("out-of-alphabet swap accepted")
	}
}

func TestInsertNodeAppendsWithoutDedup(t *testing.T) {
	g := randomGraph(SOG, 9)
	var a, b NodeID = -1, -1
	for i := range g.Nodes {
		if g.Nodes[i].Op == And {
			a, b = g.Nodes[i].Fanin[0], g.Nodes[i].Fanin[1]
		}
	}
	if a < 0 {
		t.Fatal("no AND node")
	}
	before := g.NumNodes()
	id, err := g.InsertNode(And, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if int(id) != before || g.NumNodes() != before+1 {
		t.Fatalf("insert id %d / count %d, want append at %d", id, g.NumNodes(), before)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("graph invalid after insert: %v", err)
	}
	checkHashConsistent(t, g)
	// The structural constructor still dedups to the FIRST owner of the
	// structure, not the duplicate.
	if got := g.AndOf(a, b); got == id || g.NumNodes() != before+1 {
		t.Fatalf("constructor resolved to %d (nodes %d), want the original owner", got, g.NumNodes())
	}

	if _, err := g.InsertNode(Input, 0); err == nil {
		t.Fatal("insert of a source op accepted")
	}
	if _, err := g.InsertNode(And, a); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := g.InsertNode(And, a, NodeID(g.NumNodes())); err == nil {
		t.Fatal("dangling fanin accepted")
	}
	aig := randomGraph(AIG, 9)
	if _, err := aig.InsertNode(Or, 0, 1); err == nil {
		t.Fatal("out-of-alphabet insert accepted")
	}
}

// TestApplyUndoRoundTrip: applying a delta and then its inverse restores
// the original node structure exactly (modulo orphaned insertions, which
// this delta does not use).
func TestApplyUndoRoundTrip(t *testing.T) {
	for _, v := range Variants() {
		g := randomGraph(v, 13)
		n := editableNode(g)
		m := editableNode(g) - 1
		for m >= 2 && !isOperator(g.Nodes[m].Op) {
			m--
		}
		d := Delta{SetFaninEdit(n, 0, 0)}
		if v == SOG && g.Nodes[m].Op == And {
			d = append(d, SetOpEdit(m, Or))
		}
		before := append([]Node(nil), g.Nodes...)
		undo, err := g.Apply(d)
		if err != nil {
			t.Fatalf("%v: apply: %v", v, err)
		}
		if reflect.DeepEqual(before, g.Nodes) {
			t.Fatalf("%v: delta was a no-op", v)
		}
		if _, err := g.Apply(undo); err != nil {
			t.Fatalf("%v: undo: %v", v, err)
		}
		if !reflect.DeepEqual(before, g.Nodes) {
			t.Fatalf("%v: undo did not restore the node array", v)
		}
		checkHashConsistent(t, g)
	}
}

// TestApplyRejectsAtomically: a delta with an invalid edit anywhere leaves
// the graph byte-identical — CheckDelta runs before the first mutation.
func TestApplyRejectsAtomically(t *testing.T) {
	g := randomGraph(SOG, 21)
	n := editableNode(g)
	before := append([]Node(nil), g.Nodes...)
	bad := Delta{
		SetFaninEdit(n, 0, 0),         // valid
		SetFaninEdit(n, 0, NodeID(n)), // self-loop
	}
	if _, err := g.Apply(bad); err == nil {
		t.Fatal("invalid delta accepted")
	}
	if !reflect.DeepEqual(before, g.Nodes) {
		t.Fatal("rejected delta mutated the graph")
	}

	// A delta may address its own insertions; CheckDelta must track them.
	ok := Delta{
		InsertEdit(Not, 1),
		SetFaninEdit(NodeID(len(g.Nodes)), 0, 0), // re-point the inserted node
	}
	if err := g.CheckDelta(ok); err != nil {
		t.Fatalf("self-referential delta rejected: %v", err)
	}
	if _, err := g.Apply(ok); err != nil {
		t.Fatalf("self-referential delta failed: %v", err)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
}

func TestDeltaBinaryIdentity(t *testing.T) {
	d1 := Delta{SetFaninEdit(5, 1, 3), SetOpEdit(7, Or), InsertEdit(And, 2, 3)}
	d2 := Delta{SetFaninEdit(5, 1, 3), SetOpEdit(7, Or), InsertEdit(And, 2, 3)}
	d3 := Delta{SetFaninEdit(5, 1, 3), SetOpEdit(7, Xor), InsertEdit(And, 2, 3)}
	if !bytes.Equal(d1.AppendBinary(nil), d2.AppendBinary(nil)) {
		t.Fatal("identical deltas encode differently")
	}
	if bytes.Equal(d1.AppendBinary(nil), d3.AppendBinary(nil)) {
		t.Fatal("different deltas encode identically")
	}
	if bytes.Equal(Delta{}.AppendBinary(nil), d1.AppendBinary(nil)) {
		t.Fatal("empty delta collides")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := randomGraph(SOG, 3)
	c := g.Clone()
	graphsEqual(t, g, c)
	n := editableNode(c)
	if err := c.SetFanin(n, 0, 0); err != nil {
		t.Fatal(err)
	}
	if g.Nodes[n].Fanin[0] == 0 && c.Nodes[n].Fanin[0] == 0 {
		// Only a problem if the original ALSO changed; re-check identity.
		t.Skip("edit happened to be a no-op")
	}
	if reflect.DeepEqual(g.Nodes, c.Nodes) {
		t.Fatal("editing the clone mutated the original")
	}
	// The clone is fully functional: constructors dedup against existing
	// structure through the lazily rebuilt index.
	var a, b NodeID = -1, -1
	for i := range c.Nodes {
		if c.Nodes[i].Op == And {
			a, b = c.Nodes[i].Fanin[0], c.Nodes[i].Fanin[1]
		}
	}
	if a >= 0 {
		before := c.NumNodes()
		c.AndOf(a, b)
		if c.NumNodes() != before {
			t.Fatal("clone did not dedup an existing node")
		}
	}
}

// decodeEditStream turns an arbitrary byte stream into an edit script:
// 14 bytes per edit, raw and unclamped, so invalid node ids, slots, ops
// and kinds all reach the validation layer.
func decodeEditStream(data []byte) Delta {
	var d Delta
	for len(data) >= 14 && len(d) < 64 {
		e := Edit{
			Kind: EditKind(data[0] % 4), // includes one invalid kind
			Op:   Op(data[1]),
			Node: NodeID(int32(binary.LittleEndian.Uint32(data[2:]))),
			Slot: int32(binary.LittleEndian.Uint32(data[6:]) % 5),
			To:   NodeID(int32(binary.LittleEndian.Uint32(data[10:]))),
		}
		e.Fanin = [3]NodeID{e.To, e.Node, Nil}
		if e.Kind == EditInsert {
			// Canonicalize unused slots so arity-valid inserts are not all
			// rejected for slot garbage.
			for j := arity(e.Op); j < 3; j++ {
				if j >= 0 {
					e.Fanin[j] = Nil
				}
			}
		}
		d = append(d, e)
		data = data[14:]
	}
	return d
}

// FuzzIncrementalEdits: arbitrary delta streams applied to real graphs
// must never panic, never corrupt structural invariants, and never desync
// the structural-hash index — accepted deltas leave a graph that Check
// passes and whose index entries all describe current structure.
func FuzzIncrementalEdits(f *testing.F) {
	f.Add(int64(0), []byte{})
	f.Add(int64(1), Delta{SetFaninEdit(40, 0, 2)}.AppendBinary(nil))
	seed := Delta{InsertEdit(Not, 2), SetOpEdit(30, Or), SetFaninEdit(31, 1, 7)}
	f.Add(int64(2), seed.AppendBinary(nil))
	f.Fuzz(func(t *testing.T, graphSeed int64, stream []byte) {
		v := Variant(uint64(graphSeed) % uint64(NumVariants))
		g := randomGraph(v, graphSeed)
		d := decodeEditStream(stream)
		undo, err := g.Apply(d)
		if err != nil {
			// Rejected deltas must leave a valid graph behind.
			if cerr := g.Check(); cerr != nil {
				t.Fatalf("rejected delta corrupted the graph: %v", cerr)
			}
			checkHashConsistent(t, g)
			return
		}
		if cerr := g.Check(); cerr != nil {
			t.Fatalf("accepted delta broke invariants: %v", cerr)
		}
		checkHashConsistent(t, g)
		if _, uerr := g.Apply(undo); uerr != nil {
			t.Fatalf("inverse delta rejected: %v", uerr)
		}
		if cerr := g.Check(); cerr != nil {
			t.Fatalf("undo broke invariants: %v", cerr)
		}
		checkHashConsistent(t, g)
	})
}

// TestRandomEditSequencesKeepHashConsistent drives long random edit
// sequences through the primitive API directly (not Apply), interleaving
// structural construction so the maintained index keeps serving dedup.
func TestRandomEditSequencesKeepHashConsistent(t *testing.T) {
	for _, v := range Variants() {
		for seed := int64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := randomGraph(v, seed)
			for step := 0; step < 50; step++ {
				n := editableNode(g)
				switch rng.Intn(3) {
				case 0:
					_ = g.SetFanin(n, rng.Intn(3), NodeID(rng.Intn(int(n))))
				case 1:
					for _, op := range []Op{And, Or, Xor} {
						if g.Variant.allows(op) && arity(op) == g.Nodes[n].NumFanin() {
							_ = g.SetOp(n, op)
							break
						}
					}
				case 2:
					// Interleaved construction exercises the live index.
					g.AndOf(NodeID(rng.Intn(int(n))), NodeID(rng.Intn(int(n))))
				}
			}
			if err := g.Check(); err != nil {
				t.Fatalf("%v seed %d: %v", v, seed, err)
			}
			checkHashConsistent(t, g)
		}
	}
}
