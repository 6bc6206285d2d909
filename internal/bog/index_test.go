package bog

import (
	"fmt"
	"math/rand"
	"testing"
)

// refIndex is the structural-hash table as a map from structure to owner,
// updated by the rule the table must keep: raw dedups hashed structures
// and appends Input/RegQ without entering them.
type refIndex map[Node]NodeID

// raw returns the id Builder.raw(n) must return when next is the node
// count.
func (r refIndex) raw(next NodeID, n Node) NodeID {
	if !hashed(n.Op) {
		return next
	}
	if id, ok := r[n]; ok {
		return id
	}
	r[n] = next
	return next
}

// checkHashConsistent verifies the structural-hash table's invariants:
// every occupied slot holds a hashed node, the occupancy count is right,
// and a probe from each node's structure ends at its own slot, so no entry
// is shadowed by an equal structure earlier in its cluster.
func checkHashConsistent(t *testing.T, g *Builder) {
	t.Helper()
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

// checkIndex checks the table's invariants and that its occupied slots
// hold exactly the reference's (structure, owner) pairs.
func checkIndex(t *testing.T, g *Builder, r refIndex) {
	t.Helper()
	checkHashConsistent(t, g)
	if g.indexed != len(r) {
		t.Fatalf("index holds %d entries, reference %d", g.indexed, len(r))
	}
	for _, e := range g.index {
		if e == 0 {
			continue
		}
		if id, ok := r[g.Nodes[e-1]]; !ok || id != NodeID(e-1) {
			t.Fatalf("index maps %+v to node %d, reference to %d (present %v)", g.Nodes[e-1], e-1, id, ok)
		}
	}
}

// construct calls gate constructor k (NotOf, AndOf, OrOf, XorOf, MuxOf).
func construct(g *Builder, k int, a, b, c NodeID) NodeID {
	switch k {
	case 0:
		return g.NotOf(a)
	case 1:
		return g.AndOf(a, b)
	case 2:
		return g.OrOf(a, b)
	case 3:
		return g.XorOf(a, b)
	default:
		return g.MuxOf(a, b, c)
	}
}

// randomStructure returns a hashed node the variant allows over existing
// fanins: half the time a copy of an existing operator node, so lookups
// hit as often as they miss.
func randomStructure(rng *rand.Rand, g *Graph) Node {
	if m := g.Nodes[rng.Intn(len(g.Nodes))]; isOperator(m.Op) && rng.Intn(2) == 0 {
		return m
	}
	var ops []Op
	for _, op := range []Op{Not, And, Or, Xor, Mux} {
		if g.Variant.allows(op) {
			ops = append(ops, op)
		}
	}
	n := Node{Op: ops[rng.Intn(len(ops))], Fanin: [3]NodeID{Nil, Nil, Nil}}
	for j := 0; j < n.NumFanin(); j++ {
		n.Fanin[j] = NodeID(rng.Intn(len(g.Nodes)))
	}
	return n
}

// TestIndexMatchesReference drives a Builder's flat structural-hash table
// in lock step with refIndex: seeded gate constructions and direct raw
// calls until the table has doubled four times and is over 70% full.
// After every construction or lookup the table must hold exactly the
// reference's pairs, with every entry reachable from its node's
// structure; raw calls must return the id the reference predicts, and a
// constructor may append only structures the reference has not seen.
func TestIndexMatchesReference(t *testing.T) {
	for _, v := range Variants() {
		t.Run(v.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(v) + 1))
			g := NewBuilder("index", v)
			r := refIndex{}
			rawStep := func(n Node) {
				t.Helper()
				if want, got := r.raw(NodeID(len(g.Nodes)), n), g.raw(n); got != want {
					t.Fatalf("raw(%+v) = %d, reference %d", n, got, want)
				}
				checkIndex(t, g, r)
			}
			constructStep := func() {
				t.Helper()
				pick := func() NodeID { return NodeID(rng.Intn(len(g.Nodes))) }
				k, a, b, c := rng.Intn(5), pick(), pick(), pick()
				id := len(g.Nodes)
				construct(g, k, a, b, c)
				for ; id < len(g.Nodes); id++ {
					if prev := r.raw(NodeID(id), g.Nodes[id]); prev != NodeID(id) {
						t.Fatalf("constructor %d appended node %d, a duplicate of node %d", k, id, prev)
					}
				}
				checkIndex(t, g, r)
			}
			for s := 0; s < 8; s++ {
				sig := g.AddSigName(fmt.Sprintf("s%d", s))
				for bit := int32(0); bit < 4; bit++ {
					rawStep(Node{Op: Input, Fanin: [3]NodeID{Nil, Nil, Nil}, Sig: sig, Bit: bit})
					rawStep(Node{Op: RegQ, Fanin: [3]NodeID{Nil, Nil, Nil}, Sig: sig, Bit: bit})
				}
			}
			for len(g.index) < 1024 || 10*g.indexed < 7*len(g.index) {
				if rng.Intn(4) == 0 {
					rawStep(randomStructure(rng, g.Graph))
				} else {
					constructStep()
				}
			}
			if err := g.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
