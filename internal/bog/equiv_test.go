package bog_test

import (
	"math/rand"
	"sort"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/elab"
	"rtltimer/internal/verilog"
)

// sigWidths collects name -> width for a class of signals in a graph.
func inputWidths(g *bog.Graph) map[string]int {
	w := map[string]int{}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Op != bog.Input {
			continue
		}
		name := g.SigNames[n.Sig]
		if int(n.Bit)+1 > w[name] {
			w[name] = int(n.Bit) + 1
		}
	}
	return w
}

func endpointWidths(g *bog.Graph, po bool) map[string]int {
	w := map[string]int{}
	for _, ep := range g.Endpoints {
		if ep.IsPO != po {
			continue
		}
		if ep.Ref.Bit+1 > w[ep.Ref.Signal] {
			w[ep.Ref.Signal] = ep.Ref.Bit + 1
		}
	}
	return w
}

func sortedNames(w map[string]int) []string {
	names := make([]string, 0, len(w))
	for n := range w {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestCrossRepresentationEquivalence drives identical random input vectors
// through all four BOG variants of every seed design and requires
// cycle-by-cycle identical register and primary-output words: the
// operator-selection rewrites (OR/XOR/MUX decompositions) must preserve
// functionality exactly. This catches rewriting bugs that the per-gate
// unit tests cannot see.
func TestCrossRepresentationEquivalence(t *testing.T) {
	specs := designs.All()
	cycles := 12
	if testing.Short() {
		specs = specs[:6]
		cycles = 6
	}
	for _, spec := range specs {
		parsed, err := verilog.Parse(designs.Generate(spec))
		if err != nil {
			t.Fatalf("%s: parse: %v", spec.Name, err)
		}
		d, err := elab.Elaborate(parsed)
		if err != nil {
			t.Fatalf("%s: elaborate: %v", spec.Name, err)
		}
		graphs := map[bog.Variant]*bog.Graph{}
		for _, v := range bog.Variants() {
			if graphs[v], err = bog.Build(d, v); err != nil {
				t.Fatalf("%s/%v: build: %v", spec.Name, v, err)
			}
		}
		ref := graphs[bog.SOG]
		inW := inputWidths(ref)
		regW := endpointWidths(ref, false)
		outW := endpointWidths(ref, true)
		inNames, regNames, outNames := sortedNames(inW), sortedNames(regW), sortedNames(outW)

		sims := map[bog.Variant]*bog.Simulator{}
		for _, v := range bog.Variants() {
			sims[v] = bog.NewSimulator(graphs[v])
		}
		rng := rand.New(rand.NewSource(spec.Seed + 42))
		for cycle := 0; cycle < cycles; cycle++ {
			for _, name := range inNames {
				word := rng.Uint64()
				for _, sim := range sims {
					sim.SetInputWord(name, word, inW[name])
				}
			}
			for _, name := range outNames {
				want := sims[bog.SOG].OutputWord(name, outW[name])
				for _, v := range bog.Variants()[1:] {
					if got := sims[v].OutputWord(name, outW[name]); got != want {
						t.Fatalf("%s cycle %d: output %s: %v=%#x, SOG=%#x",
							spec.Name, cycle, name, v, got, want)
					}
				}
			}
			for _, sim := range sims {
				sim.Step()
			}
			for _, name := range regNames {
				want := sims[bog.SOG].RegWord(name, regW[name])
				for _, v := range bog.Variants()[1:] {
					if got := sims[v].RegWord(name, regW[name]); got != want {
						t.Fatalf("%s cycle %d: register %s: %v=%#x, SOG=%#x",
							spec.Name, cycle, name, v, got, want)
					}
				}
			}
		}
	}
}
