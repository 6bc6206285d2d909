package designs

import (
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/elab"
	"rtltimer/internal/verilog"
)

func TestAllSpecsNamed(t *testing.T) {
	specs := All()
	if len(specs) != 21 {
		t.Fatalf("spec count = %d, want 21 (paper Table 3)", len(specs))
	}
	families := map[string]int{}
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate design name %s", s.Name)
		}
		names[s.Name] = true
		families[s.Family]++
	}
	// Paper Table 3: 6 ITC'99, 4 OpenCores... our suite assigns Marax and
	// FPU to OpenCores making 5; VexRiscv 8, Chipyard 3.
	if families["ITC99"] != 6 || families["Chipyard"] != 3 || families["VexRiscv"] != 8 {
		t.Errorf("family mix: %v", families)
	}
}

func TestEveryDesignElaboratesAndBlasts(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			src := Generate(spec)
			parsed, err := verilog.Parse(src)
			if err != nil {
				t.Fatalf("parse: %v\n%s", err, src)
			}
			d, err := elab.Elaborate(parsed)
			if err != nil {
				t.Fatalf("elaborate: %v", err)
			}
			if len(d.Regs) == 0 {
				t.Fatal("no registers")
			}
			g, err := bog.Build(d, bog.SOG)
			if err != nil {
				t.Fatalf("bitblast: %v", err)
			}
			if err := g.Check(); err != nil {
				t.Fatal(err)
			}
			if len(g.Endpoints) < 16 {
				t.Errorf("only %d endpoints", len(g.Endpoints))
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, _ := ByName("syscaes")
	if Generate(spec) != Generate(spec) {
		t.Error("generation is not deterministic")
	}
}

func TestScaleGrowsDesign(t *testing.T) {
	spec, _ := ByName("Vex_1")
	small := Generate(spec)
	spec.Scale = 4
	large := Generate(spec)
	if len(large) <= len(small) {
		t.Errorf("scale knob did not grow the design: %d vs %d bytes", len(small), len(large))
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("b18_1"); !ok {
		t.Error("b18_1 missing")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("found nonexistent design")
	}
}

func TestDesignsAreStructurallyDiverse(t *testing.T) {
	// Crypto and CPU designs should produce different node-count profiles.
	sizes := map[string]int{}
	for _, name := range []string{"syscdes", "Rocket1", "conmax", "FPU"} {
		spec, _ := ByName(name)
		parsed, err := verilog.Parse(Generate(spec))
		if err != nil {
			t.Fatal(err)
		}
		d, err := elab.Elaborate(parsed)
		if err != nil {
			t.Fatal(err)
		}
		g, err := bog.Build(d, bog.SOG)
		if err != nil {
			t.Fatal(err)
		}
		sizes[name] = g.CombNodes()
	}
	seen := map[int]bool{}
	for name, n := range sizes {
		if n < 50 {
			t.Errorf("%s: only %d comb nodes", name, n)
		}
		if seen[n] {
			t.Errorf("suspiciously identical sizes: %v", sizes)
		}
		seen[n] = true
	}
}
