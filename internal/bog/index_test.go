package bog

import (
	"fmt"
	"math/rand"
	"testing"
)

// refIndex is the structural-hash index as a map from structure to owner,
// updated by the rules the table must keep: raw dedups hashed structures
// and appends Input/RegQ unindexed, a rebuild keeps the first occurrence,
// add keeps an existing owner, and remove deletes only an entry its node
// owns.
type refIndex map[Node]NodeID

func refRebuild(g *Graph) refIndex {
	r := refIndex{}
	for i, n := range g.Nodes {
		if _, ok := r[n]; !ok && hashed(n.Op) {
			r[n] = NodeID(i)
		}
	}
	return r
}

// raw returns the id Graph.raw(n) must return when next is the node count.
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

func (r refIndex) add(g *Graph, n NodeID) {
	if _, ok := r[g.Nodes[n]]; !ok && hashed(g.Nodes[n].Op) {
		r[g.Nodes[n]] = n
	}
}

func (r refIndex) remove(g *Graph, n NodeID) {
	if id, ok := r[g.Nodes[n]]; ok && id == n {
		delete(r, g.Nodes[n])
	}
}

// checkIndex checks the table's invariants and that its occupied slots
// hold exactly the reference's (structure, owner) pairs.
func checkIndex(t *testing.T, g *Graph, r refIndex) {
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
func construct(g *Graph, k int, a, b, c NodeID) NodeID {
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

// TestIndexMatchesReference drives the flat structural-hash table in lock
// step with refIndex: seeded gate constructions and direct raw calls until
// the table has doubled four times and is over 70% full, then random
// SetFanin/SetOp/InsertNode edits interleaved with raw lookups, many of
// them deleting inside a probe cluster. After every step the table must
// hold exactly the reference's pairs, with every entry reachable from its
// node's structure. Constructors must return what they return on a clone,
// whose index is rebuilt from the node array; raw calls must return the
// id the reference predicts.
func TestIndexMatchesReference(t *testing.T) {
	for _, v := range Variants() {
		t.Run(v.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(v) + 1))
			g := NewGraph("index", v)
			r := refIndex{}
			rawStep := func(n Node) {
				t.Helper()
				if want, got := r.raw(NodeID(len(g.Nodes)), n), g.raw(n); got != want {
					t.Fatalf("raw(%+v) = %d, reference %d", n, got, want)
				}
			}
			for s := 0; s < 8; s++ {
				sig := g.AddSigName(fmt.Sprintf("s%d", s))
				for bit := int32(0); bit < 4; bit++ {
					rawStep(Node{Op: Input, Fanin: [3]NodeID{Nil, Nil, Nil}, Sig: sig, Bit: bit})
					rawStep(Node{Op: RegQ, Fanin: [3]NodeID{Nil, Nil, Nil}, Sig: sig, Bit: bit})
				}
			}
			checkIndex(t, g, r)

			for len(g.index) < 1024 || 10*g.indexed < 7*len(g.index) {
				if rng.Intn(4) == 0 {
					rawStep(randomStructure(rng, g))
				} else {
					k := rng.Intn(5)
					pick := func() NodeID { return NodeID(rng.Intn(len(g.Nodes))) }
					a, b, c := pick(), pick(), pick()
					before := len(g.Nodes)
					clone := g.Clone()
					want := construct(clone, k, a, b, c)
					if got := construct(g, k, a, b, c); got != want || len(g.Nodes) != len(clone.Nodes) {
						t.Fatalf("constructor %d(%d, %d, %d) = %d with %d nodes, on a clone %d with %d", k, a, b, c, got, len(g.Nodes), want, len(clone.Nodes))
					}
					for id := before; id < len(g.Nodes); id++ {
						if g.Nodes[id] != clone.Nodes[id] {
							t.Fatalf("constructor %d appended %+v as node %d, on a clone %+v", k, g.Nodes[id], id, clone.Nodes[id])
						}
						if prev := r.raw(NodeID(id), g.Nodes[id]); prev != NodeID(id) {
							t.Fatalf("constructor %d appended node %d, a duplicate of node %d", k, id, prev)
						}
					}
				}
				checkIndex(t, g, r)
			}

			clusterDeletes := 0
			for step := 0; step < 1500; step++ {
				n := NodeID(2 + rng.Intn(len(g.Nodes)-2))
				if !isOperator(g.Nodes[n].Op) {
					rawStep(randomStructure(rng, g))
					checkIndex(t, g, r)
					continue
				}
				if i, id := g.findSlot(&g.Nodes[n]); id == n && g.index[(i+1)&(len(g.index)-1)] != 0 {
					clusterDeletes++ // an edit of n deletes inside a probe cluster
				}
				switch rng.Intn(4) {
				case 0:
					slot, to := rng.Intn(g.Nodes[n].NumFanin()), NodeID(rng.Intn(int(n)))
					if g.Nodes[n].Fanin[slot] != to {
						r.remove(g, n)
						if err := g.SetFanin(n, slot, to); err != nil {
							t.Fatal(err)
						}
						r.add(g, n)
					}
				case 1:
					op := []Op{And, Or, Xor}[rng.Intn(3)]
					if g.Nodes[n].NumFanin() == 2 && g.Variant.allows(op) && g.Nodes[n].Op != op {
						r.remove(g, n)
						if err := g.SetOp(n, op); err != nil {
							t.Fatal(err)
						}
						r.add(g, n)
					}
				case 2:
					m := randomStructure(rng, g)
					id, err := g.InsertNode(m.Op, m.Fanin[:m.NumFanin()]...)
					if err != nil {
						t.Fatal(err)
					}
					r.add(g, id)
				default:
					rawStep(randomStructure(rng, g))
				}
				checkIndex(t, g, r)
			}
			if clusterDeletes < 100 {
				t.Fatalf("only %d edits deleted inside a probe cluster", clusterDeletes)
			}
			if err := g.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBuildReleasesIndex: Build returns a graph without an index, and the
// first construction on it rebuilds one that still dedups.
func TestBuildReleasesIndex(t *testing.T) {
	d := mustDesign(t, `
module m(input clk, input [7:0] a, input [7:0] b, output [7:0] out);
  reg [7:0] r;
  always @(posedge clk)
    r <= (a & b) + (a ^ b);
  assign out = r;
endmodule`)
	for _, v := range Variants() {
		g, err := Build(d, v)
		if err != nil {
			t.Fatal(err)
		}
		if g.index != nil || g.indexed != 0 {
			t.Fatalf("%v: built graph carries an index of %d slots", v, len(g.index))
		}
		var and NodeID = Nil
		for i := range g.Nodes {
			if g.Nodes[i].Op == And {
				and = NodeID(i)
				break
			}
		}
		if and == Nil {
			t.Fatalf("%v: no AND node", v)
		}
		before := g.NumNodes()
		if got := g.AndOf(g.Nodes[and].Fanin[0], g.Nodes[and].Fanin[1]); got != and || g.NumNodes() != before {
			t.Fatalf("%v: AndOf an existing AND = %d with %d nodes, want %d with %d", v, got, g.NumNodes(), and, before)
		}
		checkIndex(t, g, refRebuild(g))
	}
}
