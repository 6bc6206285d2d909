package dataset

import (
	"math"
	"testing"

	"rtltimer/internal/designs"
	"rtltimer/internal/engine"
)

func sameF64s(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d != %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %v != %v", what, i, a[i], b[i])
		}
	}
}

// TestBuildDeterministicAcrossJobs: the full dataset build — bit blasting,
// levelized pseudo-STA, path sampling, feature extraction — must be byte-
// identical whether the engine runs serially or with 8 workers. Run under
// -race in CI, this doubles as the engine's data-race certificate.
func TestBuildDeterministicAcrossJobs(t *testing.T) {
	specs := designs.All()[:3]
	serial, err := BuildAll(specs, BuildOptions{Engine: engine.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := BuildAll(specs, BuildOptions{Engine: engine.New(8)})
	if err != nil {
		t.Fatal(err)
	}
	for di := range specs {
		a, b := serial[di], parallel[di]
		name := specs[di].Name
		if a.Period != b.Period {
			t.Fatalf("%s: period %v != %v", name, a.Period, b.Period)
		}
		if math.Float64bits(a.LabelWNS) != math.Float64bits(b.LabelWNS) ||
			math.Float64bits(a.LabelTNS) != math.Float64bits(b.LabelTNS) {
			t.Fatalf("%s: labels differ", name)
		}
		sameF64s(t, name+" EPLabels", a.EPLabels, b.EPLabels)
		for i := range a.EPRefs {
			if a.EPRefs[i] != b.EPRefs[i] {
				t.Fatalf("%s: EPRefs[%d] %q != %q", name, i, a.EPRefs[i], b.EPRefs[i])
			}
		}
		if len(a.Reps) != len(b.Reps) {
			t.Fatalf("%s: rep count %d != %d", name, len(a.Reps), len(b.Reps))
		}
		for v, ra := range a.Reps {
			rb := b.Reps[v]
			what := name + "/" + v.String()
			sameF64s(t, what+" EPPseudo", ra.EPPseudo, rb.EPPseudo)
			if len(ra.X) != len(rb.X) {
				t.Fatalf("%s: row count %d != %d", what, len(ra.X), len(rb.X))
			}
			for i := range ra.X {
				sameF64s(t, what+" X row", ra.X[i], rb.X[i])
			}
			if len(ra.Groups) != len(rb.Groups) {
				t.Fatalf("%s: group count differs", what)
			}
			for gi := range ra.Groups {
				ga, gb := ra.Groups[gi], rb.Groups[gi]
				if len(ga) != len(gb) {
					t.Fatalf("%s: group %d size differs", what, gi)
				}
				for i := range ga {
					if ga[i] != gb[i] {
						t.Fatalf("%s: group %d row %d: %d != %d", what, gi, i, ga[i], gb[i])
					}
				}
			}
		}
	}
}
