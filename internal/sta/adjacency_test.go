package sta_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
)

// freshConsumers is the oracle adjacency: every node's consumers, one
// entry per fanin slot, in (consumer id, slot) order, built from scratch.
func freshConsumers(g *bog.Graph) [][]bog.NodeID {
	out := make([][]bog.NodeID, len(g.Nodes))
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		for j := 0; j < nd.NumFanin(); j++ {
			out[nd.Fanin[j]] = append(out[nd.Fanin[j]], bog.NodeID(i))
		}
	}
	return out
}

// sameAdjacency asserts that every consumer list and fanout count an
// reports matches a from-scratch build of g.
func sameAdjacency(t *testing.T, what string, an *sta.Analyzer, g *bog.Graph) {
	t.Helper()
	_, _, _, fanout := an.State()
	for n, want := range freshConsumers(g) {
		got := an.Consumers(bog.NodeID(n))
		if !slices.Equal(got, want) {
			t.Fatalf("%s: consumers of node %d = %v, want %v", what, n, got, want)
		}
		if int(fanout[n]) != len(want) {
			t.Fatalf("%s: fanout of node %d = %d, want %d", what, n, fanout[n], len(want))
		}
	}
}

// hopDelta draws hop's delta for g. Hops cycle through a single set-fanin,
// a single set-op (a set-fanin where the variant has no same-arity swap),
// a single insert, a multi-edit delta that inserts a node and re-points
// one of its own fanins, a random mix, and a re-point of a node an
// earlier hop inserted.
func hopDelta(g *bog.Graph, rng *rand.Rand, hop, baseNodes int) bog.Delta {
	alphabet := operatorAlphabet(g.Variant)
	var ops []bog.NodeID
	for i := 3; i < len(g.Nodes); i++ {
		switch g.Nodes[i].Op {
		case bog.Not, bog.And, bog.Or, bog.Xor, bog.Mux:
			ops = append(ops, bog.NodeID(i))
		}
	}
	repoint := func(n bog.NodeID) bog.Edit {
		return bog.SetFaninEdit(n, rng.Intn(arityOf(g.Nodes[n].Op)), bog.NodeID(rng.Intn(int(n))))
	}
	insert := func(below int) bog.Edit {
		op := alphabet[rng.Intn(len(alphabet))]
		fanin := make([]bog.NodeID, arityOf(op))
		for j := range fanin {
			fanin[j] = bog.NodeID(rng.Intn(below))
		}
		return bog.InsertEdit(op, fanin...)
	}
	setOp := func() bog.Edit {
		for try := 0; try < 64; try++ {
			n := ops[rng.Intn(len(ops))]
			for _, op := range alphabet {
				if op != g.Nodes[n].Op && arityOf(op) == arityOf(g.Nodes[n].Op) {
					return bog.SetOpEdit(n, op)
				}
			}
		}
		return repoint(ops[rng.Intn(len(ops))])
	}
	nn := len(g.Nodes)
	switch hop % 6 {
	case 0:
		return bog.Delta{repoint(ops[rng.Intn(len(ops))])}
	case 1:
		return bog.Delta{setOp()}
	case 2:
		return bog.Delta{insert(nn)}
	case 3:
		// The insert lands at id nn; the set-fanin after it re-points one
		// of that same-delta node's fanins, and a second insert reads it.
		ins := insert(nn)
		return bog.Delta{
			repoint(ops[rng.Intn(len(ops))]),
			ins,
			bog.SetFaninEdit(bog.NodeID(nn), rng.Intn(arityOf(ins.Op)), bog.NodeID(rng.Intn(nn))),
			setOp(),
			bog.InsertEdit(bog.Not, bog.NodeID(nn)),
			repoint(ops[rng.Intn(len(ops))]),
		}
	case 4:
		return randomDelta(g, rng, 2+rng.Intn(6), true)
	default:
		d := bog.Delta{repoint(ops[rng.Intn(len(ops))])}
		if nn > baseNodes {
			n := bog.NodeID(baseNodes + rng.Intn(nn-baseNodes))
			if arityOf(g.Nodes[n].Op) > 0 {
				d = append(d, repoint(n))
			}
		}
		return d
	}
}

// TestAdjacencyChainsMatchFreshBuild is the oracle for the shared fanout
// adjacency: on random graphs under every variant, a seeded six-hop edit
// chain opens each hop's session on the previous hop's snapshot. After
// every hop, every analyzer of the chain so far must report consumer
// lists and fanout counts equal to a from-scratch build of its own graph,
// and the newest must be bit-identical to a fresh Analyzer; after the
// chain, the root CSR must still equal the copy taken before it. A
// session that wrote a shared root or inherited overlay list in place
// would break one of the three.
func TestAdjacencyChainsMatchFreshBuild(t *testing.T) {
	const hops = 6
	lib := liberty.DefaultPseudoLib()
	seeds := int64(10)
	if testing.Short() {
		seeds = 3
	}
	for _, v := range bog.Variants() {
		for seed := int64(0); seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(seed*7 + int64(v)))
			g0 := randomEditGraph(v, seed+100)
			cur := sta.NewAnalyzer(g0, lib)
			arr := cur.Arrivals(1)
			off, cons := sta.RootCSR(cur)
			rootOff, rootCons := slices.Clone(off), slices.Clone(cons)
			chain := []*sta.Analyzer{cur}
			for hop := 0; hop < hops; hop++ {
				g := cur.G.Clone()
				inc, err := sta.NewIncrementalOn(cur, g, arr)
				if err != nil {
					t.Fatal(err)
				}
				d := hopDelta(g, rng, hop, len(g0.Nodes))
				if _, err := inc.Apply(d); err != nil {
					t.Fatalf("%v seed %d hop %d: %v: %v", v, seed, hop, d, err)
				}
				cur, arr = inc.Snapshot()
				chain = append(chain, cur)
				for k, an := range chain {
					sameAdjacency(t, fmt.Sprintf("%v seed %d hop %d: analyzer %d", v, seed, hop, k), an, an.G)
				}
				fresh := sta.NewAnalyzer(g, lib)
				sameFloats(t, "Arrival", g, fresh.Arrivals(1), arr)
				fl, fs, fd, _ := fresh.State()
				cl, cs, cd, _ := cur.State()
				sameFloats(t, "Load", g, fl, cl)
				sameFloats(t, "Slew", g, fs, cs)
				sameFloats(t, "Delay", g, fd, cd)
			}
			if !slices.Equal(off, rootOff) || !slices.Equal(cons, rootCons) {
				t.Fatalf("%v seed %d: the chain wrote the shared root CSR", v, seed)
			}
			if tipOff, tipCons := sta.RootCSR(cur); &tipOff[0] != &off[0] || (len(cons) > 0 && &tipCons[0] != &cons[0]) {
				t.Fatalf("%v seed %d: the chain's tip does not share the root CSR", v, seed)
			}
		}
	}
}
