package bog

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomGraph builds a structurally valid random graph through the public
// constructors, so it exercises variant rewriting, structural hashing and
// endpoint bookkeeping exactly like bit-blasting does.
func randomGraph(v Variant, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewBuilder(fmt.Sprintf("rand-%v-%d", v, seed), v)
	var pool []NodeID
	nIn := 2 + rng.Intn(6)
	for i := 0; i < nIn; i++ {
		sig := g.AddSigName(fmt.Sprintf("in%d", i))
		for b := 0; b < 1+rng.Intn(3); b++ {
			pool = append(pool, g.NewInput(sig, b))
		}
	}
	nReg := 1 + rng.Intn(4)
	var regs []NodeID
	for i := 0; i < nReg; i++ {
		sig := g.AddSigName(fmt.Sprintf("r%d", i))
		for b := 0; b < 1+rng.Intn(3); b++ {
			q := g.NewRegQ(sig, b)
			regs = append(regs, q)
			pool = append(pool, q)
		}
	}
	pick := func() NodeID { return pool[rng.Intn(len(pool))] }
	nOps := 10 + rng.Intn(120)
	for i := 0; i < nOps; i++ {
		var id NodeID
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
		g.Endpoints = append(g.Endpoints, Endpoint{
			Ref: SignalRef{Signal: g.SigNames[g.Nodes[q].Sig], Bit: int(g.Nodes[q].Bit)},
			D:   pick(),
			Q:   q,
		})
		if i == 0 {
			g.Endpoints = append(g.Endpoints, Endpoint{
				Ref:  SignalRef{Signal: "po", Bit: 0},
				D:    pick(),
				Q:    Nil,
				IsPO: true,
			})
		}
	}
	g.Inputs = append(g.Inputs, SignalRef{Signal: "in0", Bit: 0})
	return g.Graph
}

func graphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.Design != b.Design || a.Variant != b.Variant {
		t.Fatalf("identity differs: %q/%v vs %q/%v", a.Design, a.Variant, b.Design, b.Variant)
	}
	if !reflect.DeepEqual(a.Nodes, b.Nodes) {
		t.Fatal("node arrays differ")
	}
	if !reflect.DeepEqual(a.SigNames, b.SigNames) {
		t.Fatal("signal tables differ")
	}
	if !reflect.DeepEqual(a.Inputs, b.Inputs) {
		t.Fatal("input lists differ")
	}
	if !reflect.DeepEqual(a.Endpoints, b.Endpoints) {
		t.Fatal("endpoint lists differ")
	}
}

// TestCodecRoundTrip is the property test: random graphs in every variant
// round-trip exactly, and re-encoding the decoded graph reproduces the
// original bytes (the byte-identity the disk cache's determinism contract
// builds on).
func TestCodecRoundTrip(t *testing.T) {
	for _, v := range Variants() {
		for seed := int64(0); seed < 25; seed++ {
			g := randomGraph(v, seed)
			if err := g.Check(); err != nil {
				t.Fatalf("%v seed %d: generator produced invalid graph: %v", v, seed, err)
			}
			blob := MarshalGraph(g)
			got, err := UnmarshalGraph(blob)
			if err != nil {
				t.Fatalf("%v seed %d: decode: %v", v, seed, err)
			}
			graphsEqual(t, g, got)
			if err := got.Check(); err != nil {
				t.Fatalf("%v seed %d: decoded graph invalid: %v", v, seed, err)
			}
			if !bytes.Equal(blob, MarshalGraph(got)) {
				t.Fatalf("%v seed %d: re-encode is not byte-identical", v, seed)
			}
		}
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	g := randomGraph(AIG, 3)
	blob := MarshalGraph(g)

	t.Run("truncation", func(t *testing.T) {
		for n := 0; n < len(blob); n++ {
			if _, err := UnmarshalGraph(blob[:n]); err == nil {
				t.Fatalf("truncation to %d bytes decoded successfully", n)
			}
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		if _, err := UnmarshalGraph(append(append([]byte(nil), blob...), 0xff)); err == nil {
			t.Fatal("trailing byte decoded successfully")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[0] ^= 0xff
		if _, err := UnmarshalGraph(bad); err == nil {
			t.Fatal("bad magic decoded successfully")
		}
	})
	t.Run("version-mismatch", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[4] = CodecVersion + 1
		if _, err := UnmarshalGraph(bad); err == nil {
			t.Fatal("future version decoded successfully")
		}
	})
	t.Run("po-endpoint-with-q", func(t *testing.T) {
		// Built graphs never give a primary-output endpoint a Q node; the
		// decoder must reject blobs that do (Check alone would not).
		bad := randomGraph(AIG, 5)
		found := false
		for i := range bad.Endpoints {
			if bad.Endpoints[i].IsPO {
				bad.Endpoints[i].Q = bad.Endpoints[i].D
				found = true
			}
		}
		if !found {
			t.Fatal("random graph has no PO endpoint")
		}
		if _, err := UnmarshalGraph(MarshalGraph(bad)); err == nil {
			t.Fatal("PO endpoint with a Q node decoded successfully")
		}
	})
	// Unused fanin slots must be Nil and signal indices must point into the
	// table, as in a built graph; Check validates neither.
	t.Run("unused-fanin-slot", func(t *testing.T) {
		bad := randomGraph(AIG, 5)
		i := slices.IndexFunc(bad.Nodes, func(n Node) bool { return n.Op == And })
		if i < 0 {
			t.Fatal("random graph has no AND node")
		}
		bad.Nodes[i].Fanin[2] = bad.Nodes[i].Fanin[0]
		if _, err := UnmarshalGraph(MarshalGraph(bad)); err == nil {
			t.Fatal("a node with a non-nil unused fanin slot decoded successfully")
		}
	})
	t.Run("signal-index-out-of-range", func(t *testing.T) {
		bad := randomGraph(AIG, 5)
		i := slices.IndexFunc(bad.Nodes, func(n Node) bool { return n.Op == Input })
		if i < 0 {
			t.Fatal("random graph has no input node")
		}
		bad.Nodes[i].Sig = int32(len(bad.SigNames))
		if _, err := UnmarshalGraph(MarshalGraph(bad)); err == nil {
			t.Fatal("an input with an out-of-range signal index decoded successfully")
		}
	})
	t.Run("bit-flips", func(t *testing.T) {
		// Every single-byte corruption must either fail cleanly or decode to
		// a graph that still passes Check; it must never panic.
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 500; trial++ {
			bad := append([]byte(nil), blob...)
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
			if dec, err := UnmarshalGraph(bad); err == nil {
				if cerr := dec.Check(); cerr != nil {
					t.Fatalf("trial %d: corrupt decode passed but Check failed: %v", trial, cerr)
				}
			}
		}
	})
}

// FuzzGraphDecode proves the decoder never panics on arbitrary input, and
// that whatever it accepts is a valid graph that re-encodes cleanly.
func FuzzGraphDecode(f *testing.F) {
	for _, v := range Variants() {
		f.Add(MarshalGraph(randomGraph(v, int64(v))))
	}
	f.Add([]byte{})
	f.Add([]byte("BOGC"))
	f.Add(MarshalGraph(NewBuilder("tiny", SOG).Graph))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := UnmarshalGraph(data)
		if err != nil {
			return
		}
		if cerr := g.Check(); cerr != nil {
			t.Fatalf("decoder accepted an invalid graph: %v", cerr)
		}
		re, rerr := UnmarshalGraph(MarshalGraph(g))
		if rerr != nil {
			t.Fatalf("accepted graph failed to round-trip: %v", rerr)
		}
		if len(re.Nodes) != len(g.Nodes) {
			t.Fatal("round-trip changed the node count")
		}
	})
}
