package bog

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"
)

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

// rejects requires a one-edit delta to be refused with the node array
// left byte-identical.
func rejects(t *testing.T, g *Graph, e Edit, what string) {
	t.Helper()
	before := slices.Clone(g.Nodes)
	if _, err := g.Apply(Delta{e}); err == nil {
		t.Fatalf("%v: %s accepted", g.Variant, what)
	}
	if !slices.Equal(before, g.Nodes) {
		t.Fatalf("%v: rejected %s mutated the graph", g.Variant, what)
	}
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
		if _, err := g.Apply(Delta{SetFaninEdit(n, 0, to)}); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if g.Nodes[n].Fanin[0] != to {
			t.Fatalf("%v: fanin not updated", v)
		}
		if err := g.Check(); err != nil {
			t.Fatalf("%v: edited graph invalid: %v", v, err)
		}

		// Rejections: out-of-range node, slot, and topological violations.
		rejects(t, g, SetFaninEdit(NodeID(len(g.Nodes)), 0, 0), "out-of-range node")
		rejects(t, g, SetFaninEdit(n, 3, 0), "out-of-range slot")
		rejects(t, g, SetFaninEdit(n, 0, n), "self-loop")
		rejects(t, g, SetFaninEdit(n, 0, NodeID(len(g.Nodes)-1)+1), "forward edge")
		rejects(t, g, SetFaninEdit(0, 0, 0), "editing a constant's fanin")
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
	if _, err := g.Apply(Delta{SetOpEdit(n, Or)}); err != nil {
		t.Fatal(err)
	}
	if g.Nodes[n].Op != Or {
		t.Fatal("op not updated")
	}
	if err := g.Check(); err != nil {
		t.Fatalf("edited graph invalid: %v", err)
	}

	rejects(t, g, SetOpEdit(n, Not), "arity-changing swap")
	rejects(t, g, SetOpEdit(n, Input), "swap to a source op")
	rejects(t, g, SetOpEdit(0, And), "swap on a constant")
	aig := randomGraph(AIG, 7)
	rejects(t, aig, SetOpEdit(editableNode(aig), Or), "out-of-alphabet swap")
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
	// The inserted AND duplicates an existing structure and still appends.
	before := g.NumNodes()
	if _, err := g.Apply(Delta{InsertEdit(And, a, b)}); err != nil {
		t.Fatal(err)
	}
	if want := (Node{Op: And, Fanin: [3]NodeID{a, b, Nil}}); g.NumNodes() != before+1 || g.Nodes[before] != want {
		t.Fatalf("insert left %d nodes ending in %+v, want an append of %+v at %d", g.NumNodes(), g.Nodes[g.NumNodes()-1], want, before)
	}
	if err := g.Check(); err != nil {
		t.Fatalf("graph invalid after insert: %v", err)
	}

	rejects(t, g, InsertEdit(Input, 0), "insert of a source op")
	rejects(t, g, InsertEdit(And, a), "arity mismatch")
	rejects(t, g, InsertEdit(And, a, NodeID(g.NumNodes())), "dangling fanin")
	rejects(t, randomGraph(AIG, 9), InsertEdit(Or, 0, 1), "out-of-alphabet insert")
}

// TestApplyFuncReportsEdits pins what ApplyFunc promises its callback on
// one delta that mixes a real set-fanin, a no-op set-fanin, a set-op, and
// an insert that a later edit addresses: each sees exactly the edits that
// changed the graph, in order and after they took effect; every set-fanin
// and set-op comes with the edit that reverts it and the insert with none;
// the returned undo is those inverses reversed. A rejected delta calls
// each zero times and leaves the node array byte-identical.
func TestApplyFuncReportsEdits(t *testing.T) {
	g := randomGraph(SOG, 7)
	var and NodeID = Nil
	for i := range g.Nodes {
		if g.Nodes[i].Op == And {
			and = NodeID(i)
		}
	}
	n := editableNode(g)
	if and == Nil || n == and {
		t.Fatal("graph lacks an AND node apart from its last operator")
	}
	old := g.Nodes[n].Fanin[0]
	to := NodeID(0)
	if old == to {
		to = 1
	}
	ins := NodeID(len(g.Nodes))
	d := Delta{
		SetFaninEdit(n, 0, to), // real
		SetFaninEdit(n, 0, to), // no-op: the first edit already made it
		SetOpEdit(and, Or),
		InsertEdit(Not, 1),
		SetFaninEdit(ins, 0, 0), // addresses the insert
	}
	type call struct {
		e   Edit
		inv *Edit
	}
	want := []call{
		{d[0], &Edit{Kind: EditSetFanin, Node: n, To: old}},
		{d[2], &Edit{Kind: EditSetOp, Node: and, Op: And}},
		{d[3], nil},
		{d[4], &Edit{Kind: EditSetFanin, Node: ins, To: 1}},
	}

	before := slices.Clone(g.Nodes)
	var got []call
	undo, err := g.ApplyFunc(d, func(e Edit, inv *Edit) {
		last := g.Nodes[len(g.Nodes)-1]
		if e.Kind == EditSetFanin && g.Nodes[e.Node].Fanin[e.Slot] != e.To ||
			e.Kind == EditSetOp && g.Nodes[e.Node].Op != e.Op ||
			e.Kind == EditInsert && (len(g.Nodes) != int(ins)+1 || last.Op != e.Op || last.Fanin != e.Fanin) {
			t.Errorf("each saw %+v before it took effect", e)
		}
		c := call{e: e}
		if inv != nil {
			c.inv = new(Edit)
			*c.inv = *inv
		}
		got = append(got, c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("each saw %+v, want %+v", got, want)
	}
	if wantUndo := (Delta{*want[3].inv, *want[1].inv, *want[0].inv}); !reflect.DeepEqual(undo, wantUndo) {
		t.Fatalf("undo %+v, want %+v", undo, wantUndo)
	}
	if _, err := g.Apply(undo); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(g.Nodes[:len(before)], before) {
		t.Fatal("undo did not restore the pre-existing nodes")
	}

	before = slices.Clone(g.Nodes)
	calls := 0
	bad := append(slices.Clone(d), SetFaninEdit(n, 0, n)) // ends in a self-loop
	if _, err := g.ApplyFunc(bad, func(Edit, *Edit) { calls++ }); err == nil {
		t.Fatal("delta ending in a self-loop accepted")
	}
	if calls != 0 || !slices.Equal(before, g.Nodes) {
		t.Fatalf("rejected delta called each %d times, nodes unchanged %v", calls, slices.Equal(before, g.Nodes))
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
	if _, err := c.Apply(Delta{SetFaninEdit(n, 0, 0)}); err != nil {
		t.Fatal(err)
	}
	if g.Nodes[n].Fanin[0] == 0 && c.Nodes[n].Fanin[0] == 0 {
		// Only a problem if the original ALSO changed; re-check identity.
		t.Skip("edit happened to be a no-op")
	}
	if reflect.DeepEqual(g.Nodes, c.Nodes) {
		t.Fatal("editing the clone mutated the original")
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
// must never panic and never corrupt structural invariants. A rejected
// delta leaves the node array byte-identical, the atomicity CheckDelta
// exists for; an accepted one leaves a graph that Check passes, and its
// inverse is accepted, restores every node that existed before, and
// leaves a graph that Check passes.
func FuzzIncrementalEdits(f *testing.F) {
	f.Add(int64(0), []byte{})
	f.Add(int64(1), Delta{SetFaninEdit(40, 0, 2)}.AppendBinary(nil))
	seed := Delta{InsertEdit(Not, 2), SetOpEdit(30, Or), SetFaninEdit(31, 1, 7)}
	f.Add(int64(2), seed.AppendBinary(nil))
	// A valid insert, then an edit of unknown kind: the rejection must
	// leave no trace of the insert.
	f.Add(int64(3), []byte{
		byte(EditInsert), byte(Not), 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
		byte(numEditKinds), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
	})
	f.Fuzz(func(t *testing.T, graphSeed int64, stream []byte) {
		v := Variant(uint64(graphSeed) % uint64(NumVariants))
		g := randomGraph(v, graphSeed)
		d := decodeEditStream(stream)
		before := slices.Clone(g.Nodes)
		undo, err := g.Apply(d)
		if err != nil {
			if !slices.Equal(before, g.Nodes) {
				t.Fatalf("rejected delta (%v) changed the node array", err)
			}
			return
		}
		if cerr := g.Check(); cerr != nil {
			t.Fatalf("accepted delta broke invariants: %v", cerr)
		}
		if _, uerr := g.Apply(undo); uerr != nil {
			t.Fatalf("inverse delta rejected: %v", uerr)
		}
		if !slices.Equal(before, g.Nodes[:len(before)]) {
			t.Fatal("inverse delta did not restore the pre-existing nodes")
		}
		if cerr := g.Check(); cerr != nil {
			t.Fatalf("undo broke invariants: %v", cerr)
		}
	})
}
