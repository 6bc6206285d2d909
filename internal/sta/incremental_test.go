package sta_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
)

// arityOf mirrors the operator fanin-slot count.
func arityOf(op bog.Op) int {
	n := bog.Node{Op: op}
	return n.NumFanin()
}

// operatorAlphabet lists the combinational operators a variant may hold.
func operatorAlphabet(v bog.Variant) []bog.Op {
	switch v {
	case bog.SOG:
		return []bog.Op{bog.Not, bog.And, bog.Or, bog.Xor, bog.Mux}
	case bog.AIG:
		return []bog.Op{bog.Not, bog.And}
	case bog.AIMG:
		return []bog.Op{bog.Not, bog.And, bog.Mux}
	default: // XAG
		return []bog.Op{bog.Not, bog.And, bog.Xor}
	}
}

// randomEditGraph builds a structurally valid random graph through the
// public constructors (mirroring the codec tests' generator, which lives
// in package bog and is not exported).
func randomEditGraph(v bog.Variant, seed int64) *bog.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := bog.NewGraph(fmt.Sprintf("edit-%v-%d", v, seed), v)
	var pool []bog.NodeID
	for i := 0; i < 2+rng.Intn(5); i++ {
		sig := g.AddSigName(fmt.Sprintf("in%d", i))
		for b := 0; b < 1+rng.Intn(3); b++ {
			pool = append(pool, g.NewInput(sig, b))
		}
	}
	var regs []bog.NodeID
	for i := 0; i < 1+rng.Intn(4); i++ {
		sig := g.AddSigName(fmt.Sprintf("r%d", i))
		for b := 0; b < 1+rng.Intn(3); b++ {
			q := g.NewRegQ(sig, b)
			regs = append(regs, q)
			pool = append(pool, q)
		}
	}
	pick := func() bog.NodeID { return pool[rng.Intn(len(pool))] }
	for i := 0; i < 20+rng.Intn(150); i++ {
		var id bog.NodeID
		switch rng.Intn(5) {
		case 0:
			id = g.NotOf(pick())
		case 1:
			id = g.AndOf(pick(), pick())
		case 2:
			id = g.OrOf(pick(), pick())
		case 3:
			id = g.XorOf(pick(), pick())
		case 4:
			id = g.MuxOf(pick(), pick(), pick())
		}
		pool = append(pool, id)
	}
	for i, q := range regs {
		g.Endpoints = append(g.Endpoints, bog.Endpoint{
			Ref: bog.SignalRef{Signal: g.SigNames[g.Nodes[q].Sig], Bit: int(g.Nodes[q].Bit)},
			D:   pick(),
			Q:   q,
		})
		if i == 0 {
			g.Endpoints = append(g.Endpoints, bog.Endpoint{
				Ref: bog.SignalRef{Signal: "po", Bit: 0}, D: pick(), Q: bog.Nil, IsPO: true,
			})
		}
	}
	return g
}

// randomDelta draws a random edit script valid for g: fanin re-pointing,
// same-arity op swaps within the variant alphabet, and (when withInserts)
// node insertions — including edits that address nodes inserted earlier in
// the same delta.
func randomDelta(g *bog.Graph, rng *rand.Rand, nEdits int, withInserts bool) bog.Delta {
	var targets []bog.NodeID // editable operator nodes
	ops := map[bog.NodeID]bog.Op{}
	for i := range g.Nodes {
		switch g.Nodes[i].Op {
		case bog.Not, bog.And, bog.Or, bog.Xor, bog.Mux:
			if i >= 3 { // leave room for a strictly smaller fanin target
				targets = append(targets, bog.NodeID(i))
				ops[bog.NodeID(i)] = g.Nodes[i].Op
			}
		}
	}
	alphabet := operatorAlphabet(g.Variant)
	nn := bog.NodeID(len(g.Nodes))
	var d bog.Delta
	for len(d) < nEdits && len(targets) > 0 {
		switch rng.Intn(4) {
		case 0, 1: // fanin re-pointing (the dominant edit in practice)
			n := targets[rng.Intn(len(targets))]
			slot := rng.Intn(arityOf(ops[n]))
			to := bog.NodeID(rng.Intn(int(n)))
			d = append(d, bog.SetFaninEdit(n, slot, to))
		case 2: // same-arity op swap, where the alphabet has one
			n := targets[rng.Intn(len(targets))]
			var alts []bog.Op
			for _, op := range alphabet {
				if op != ops[n] && arityOf(op) == arityOf(ops[n]) {
					alts = append(alts, op)
				}
			}
			if len(alts) == 0 {
				continue
			}
			op := alts[rng.Intn(len(alts))]
			ops[n] = op
			d = append(d, bog.SetOpEdit(n, op))
		case 3: // insert a fresh node, addressable by later edits
			if !withInserts {
				continue
			}
			op := alphabet[rng.Intn(len(alphabet))]
			fanins := make([]bog.NodeID, arityOf(op))
			for j := range fanins {
				fanins[j] = bog.NodeID(rng.Intn(int(nn)))
			}
			d = append(d, bog.InsertEdit(op, fanins...))
			targets = append(targets, nn)
			ops[nn] = op
			nn++
		}
	}
	return d
}

// verifyAgainstFresh asserts the incremental session's entire timing state
// is bit-identical to a from-scratch Analyzer on the (edited) graph,
// across clock periods.
func verifyAgainstFresh(t *testing.T, g *bog.Graph, lib *liberty.PseudoLib, inc *sta.Incremental) {
	t.Helper()
	an := sta.NewAnalyzer(g, lib)
	sameFloats(t, "Arrival", g, an.Arrivals(1), inc.Arrivals())
	al, as, ad, af := an.State()
	il, is, idl, ifo := inc.State()
	sameFloats(t, "Load", g, al, il)
	sameFloats(t, "Slew", g, as, is)
	sameFloats(t, "Delay", g, ad, idl)
	if len(af) != len(ifo) {
		t.Fatalf("%s/%v: fanout length %d != %d", g.Design, g.Variant, len(ifo), len(af))
	}
	for i := range af {
		if af[i] != ifo[i] {
			t.Fatalf("%s/%v: Fanout[%d] = %d != %d", g.Design, g.Variant, i, ifo[i], af[i])
		}
	}
	arr := an.Arrivals(1)
	for _, p := range []float64{0.3, 0.7} {
		sameResult(t, g, an.At(arr, p), inc.At(p))
	}
}

// TestIncrementalMatchesFreshAnalyzer is the central property test of the
// edit-delta engine: random edit sequences (all four BOG variants, 30
// seeds each, several delta batches per seed, verified after every batch)
// applied incrementally must leave arrivals, loads, slews, delays, fanouts
// and per-period slacks byte-identical to a fresh Analyzer built from the
// edited graph (run under -race in CI).
func TestIncrementalMatchesFreshAnalyzer(t *testing.T) {
	lib := liberty.DefaultPseudoLib()
	seeds := int64(30)
	if testing.Short() {
		seeds = 8
	}
	for _, v := range bog.Variants() {
		for seed := int64(0); seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(seed * 1009))
			g := randomEditGraph(v, seed)
			inc := sta.NewIncremental(g, lib)
			verifyAgainstFresh(t, g, lib, inc)
			for batch := 0; batch < 4; batch++ {
				d := randomDelta(g, rng, 1+rng.Intn(6), true)
				if len(d) == 0 {
					continue
				}
				if _, err := inc.Apply(d); err != nil {
					t.Fatalf("%v seed %d batch %d: %v", v, seed, batch, err)
				}
				verifyAgainstFresh(t, g, lib, inc)
			}
		}
	}
}

// TestIncrementalUndoRestoresTiming: for insert-free deltas — the
// optimizer's trial/revert loop — applying the inverse restores the
// entire timing state bit-exactly. Deltas with insertions leave orphans
// whose residual input load legitimately shifts nearby timing, so for
// those only consistency with a fresh analysis is required (second loop).
func TestIncrementalUndoRestoresTiming(t *testing.T) {
	lib := liberty.DefaultPseudoLib()
	for _, v := range bog.Variants() {
		for seed := int64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + 7))
			g := randomEditGraph(v, seed)
			inc := sta.NewIncremental(g, lib)
			before := append([]float64(nil), inc.Arrivals()...)
			d := randomDelta(g, rng, 5, false)
			undo, err := inc.Apply(d)
			if err != nil {
				t.Fatalf("%v seed %d: apply: %v", v, seed, err)
			}
			if _, err := inc.Apply(undo); err != nil {
				t.Fatalf("%v seed %d: undo: %v", v, seed, err)
			}
			sameFloats(t, "Arrival", g, before, inc.Arrivals())
			verifyAgainstFresh(t, g, lib, inc)

			// With insertions: undo keeps the session exactly consistent
			// with a fresh analysis of the orphaned graph.
			di := randomDelta(g, rng, 5, true)
			undoI, err := inc.Apply(di)
			if err != nil {
				t.Fatalf("%v seed %d: apply inserts: %v", v, seed, err)
			}
			if _, err := inc.Apply(undoI); err != nil {
				t.Fatalf("%v seed %d: undo inserts: %v", v, seed, err)
			}
			verifyAgainstFresh(t, g, lib, inc)
		}
	}
}

// TestIncrementalRejectsInvalidDeltaUntouched: a rejected delta must not
// change a single bit of the timing state.
func TestIncrementalRejectsInvalidDeltaUntouched(t *testing.T) {
	lib := liberty.DefaultPseudoLib()
	g := randomEditGraph(bog.SOG, 5)
	inc := sta.NewIncremental(g, lib)
	before := append([]float64(nil), inc.Arrivals()...)
	var target bog.NodeID
	for i := range g.Nodes {
		if g.Nodes[i].NumFanin() > 0 {
			target = bog.NodeID(i)
		}
	}
	bad := bog.Delta{
		bog.SetFaninEdit(target, 0, 0),      // valid
		bog.SetFaninEdit(target, 0, target), // self-loop: rejected
	}
	if _, err := inc.Apply(bad); err == nil {
		t.Fatal("invalid delta accepted")
	}
	sameFloats(t, "Arrival", g, before, inc.Arrivals())
	verifyAgainstFresh(t, g, lib, inc)
}

// TestIncrementalSeedsFromAnalyzerState: a session seeded from an
// Analyzer's State vectors (the engine's warm path) behaves identically
// to one built from scratch.
func TestIncrementalSeedsFromAnalyzerState(t *testing.T) {
	lib := liberty.DefaultPseudoLib()
	g := randomEditGraph(bog.XAG, 11)
	an := sta.NewAnalyzer(g, lib)
	load, slew, delay, _ := an.State()
	inc, err := sta.NewIncrementalFromState(g, lib, load, slew, delay, an.Arrivals(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	if _, err := inc.Apply(randomDelta(g, rng, 4, true)); err != nil {
		t.Fatal(err)
	}
	verifyAgainstFresh(t, g, lib, inc)

	if _, err := sta.NewIncrementalFromState(g, lib, load[:1], slew, delay, an.Arrivals(1)); err == nil {
		t.Fatal("short state vector accepted")
	}
}

// TestIncrementalSnapshotIsImmutable: Snapshot hands the session's own
// vectors to the returned Analyzer and arrival vector and seals the
// session, so an Apply after it must fail and leave the graph and every
// snapshot vector bit-unchanged, while the read accessors keep answering.
func TestIncrementalSnapshotIsImmutable(t *testing.T) {
	lib := liberty.DefaultPseudoLib()
	g := randomEditGraph(bog.SOG, 17)
	inc := sta.NewIncremental(g, lib)
	rng := rand.New(rand.NewSource(9))
	if _, err := inc.Apply(randomDelta(g, rng, 4, true)); err != nil {
		t.Fatal(err)
	}
	recomputed := inc.Recomputed()
	an, arr := inc.Snapshot()
	// The snapshot materializes consistent period views for the captured
	// state.
	r := an.At(arr, 0.5)
	if len(r.Slack) != len(g.Endpoints) {
		t.Fatalf("snapshot result covers %d endpoints, want %d", len(r.Slack), len(g.Endpoints))
	}
	load, slew, delay, fanout := an.State()
	frozen := [][]float64{slices.Clone(arr), slices.Clone(load), slices.Clone(slew), slices.Clone(delay)}
	frozenFanout := slices.Clone(fanout)
	graph := bog.MarshalGraph(g)

	if _, err := inc.Apply(randomDelta(g, rng, 6, true)); err == nil {
		t.Fatal("Apply after Snapshot succeeded")
	}
	if !bytes.Equal(bog.MarshalGraph(g), graph) {
		t.Fatal("refused Apply changed the graph")
	}
	for k, v := range [][]float64{arr, load, slew, delay} {
		sameFloats(t, fmt.Sprintf("snapshot vector %d", k), g, frozen[k], v)
	}
	if !slices.Equal(fanout, frozenFanout) {
		t.Fatal("refused Apply changed the snapshot fanout")
	}
	if inc.Recomputed() != recomputed || inc.G != g {
		t.Fatal("sealed session stopped answering its read accessors")
	}
	sameFloats(t, "sealed Arrivals", g, arr, inc.Arrivals())
	verifyAgainstFresh(t, g, lib, inc)
}

// TestIncrementalConeProportional: a single edit at an endpoint driver
// must re-time only a sliver of the graph — the worklist's early cutoff is
// what makes the incremental engine cone-proportional rather than
// design-proportional.
func TestIncrementalConeProportional(t *testing.T) {
	lib := liberty.DefaultPseudoLib()
	g := randomEditGraph(bog.SOG, 23)
	inc := sta.NewIncremental(g, lib)
	// Pick the endpoint driver with the highest id: nothing (or almost
	// nothing) is downstream of it.
	var n bog.NodeID = bog.Nil
	for _, ep := range g.Endpoints {
		if ep.D > n && g.Nodes[ep.D].NumFanin() > 0 {
			n = ep.D
		}
	}
	if n == bog.Nil {
		t.Skip("no endpoint driver with fanins")
	}
	before := inc.Recomputed()
	if _, err := inc.Apply(bog.Delta{bog.SetFaninEdit(n, 0, 0)}); err != nil {
		t.Fatal(err)
	}
	touched := inc.Recomputed() - before
	if max := int64(len(g.Nodes)) / 2; touched > max {
		t.Fatalf("endpoint-driver edit re-timed %d of %d nodes, want <= %d", touched, len(g.Nodes), max)
	}
	verifyAgainstFresh(t, g, lib, inc)
}
