package dataset

import (
	"math"
	"strings"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
)

func buildOne(t *testing.T, name string) *DesignData {
	t.Helper()
	spec, ok := designs.ByName(name)
	if !ok {
		t.Fatalf("no design %s", name)
	}
	dd, err := Build(spec, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return dd
}

func TestBuildProducesAlignedData(t *testing.T) {
	dd := buildOne(t, "syscdes")
	if len(dd.Labels) == 0 {
		t.Fatal("no labels")
	}
	if dd.LabelWNS >= dd.Period {
		t.Errorf("WNS %f vs period %f", dd.LabelWNS, dd.Period)
	}
	var refEPs []string
	for _, v := range bog.Variants() {
		rep := dd.Reps[v]
		if rep == nil {
			t.Fatalf("missing rep %v", v)
		}
		if len(rep.EPRefs) != len(rep.Groups) || len(rep.EPRefs) != len(rep.EPLabels) {
			t.Fatalf("%v: misaligned arrays", v)
		}
		if refEPs == nil {
			refEPs = rep.EPRefs
		} else {
			if len(refEPs) != len(rep.EPRefs) {
				t.Fatalf("%v: endpoint count differs across reps", v)
			}
			for i := range refEPs {
				if refEPs[i] != rep.EPRefs[i] {
					t.Fatalf("%v: endpoint order differs at %d: %s vs %s", v, i, refEPs[i], rep.EPRefs[i])
				}
			}
		}
		// Every group's first row must be the slowest path: its vector's
		// last-but-one feature (path_arrival) equals the max over group.
		for gi, g := range rep.Groups {
			if len(g) == 0 {
				t.Fatalf("%v: empty group %d", v, gi)
			}
			first := rep.X[g[0]]
			pathAT := first[len(first)-1]
			for _, r := range g[1:] {
				if rep.X[r][len(first)-1] > pathAT+1e-9 {
					t.Fatalf("%v: slowest path is not first in group %d", v, gi)
				}
			}
		}
		// Labels positive and finite.
		for i, lab := range rep.EPLabels {
			if math.IsNaN(lab) || lab <= 0 {
				t.Fatalf("%v: label[%d] = %f", v, i, lab)
			}
		}
	}
}

func TestPseudoSTACorrelatesWithLabels(t *testing.T) {
	// Fig. 5(a): RTL pseudo-STA does not match netlist timing but is
	// clearly correlated — the foundation of learnability.
	dd := buildOne(t, "b17")
	rep := dd.Reps[bog.SOG]
	r := pearson(rep.EPPseudo, rep.EPLabels)
	if r < 0.4 {
		t.Errorf("pseudo-STA vs labels R = %f, want > 0.4", r)
	}
	// But not identical (the synthesis substrate must distort timing).
	if r > 0.999 {
		t.Errorf("pseudo-STA vs labels R = %f: synthesis substrate too transparent", r)
	}
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		cov += (a[i] - ma) * (b[i] - mb)
		va += (a[i] - ma) * (a[i] - ma)
		vb += (b[i] - mb) * (b[i] - mb)
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

func TestSignalLabels(t *testing.T) {
	dd := buildOne(t, "syscdes")
	sl := dd.SignalLabels()
	if len(sl) == 0 {
		t.Fatal("no signal labels")
	}
	// Signal label is the max over its bits.
	rep := dd.Reps[bog.SOG]
	for i, sig := range rep.EPSignals {
		if rep.EPIsPO[i] {
			continue
		}
		if rep.EPLabels[i] > sl[sig]+1e-12 {
			t.Fatalf("signal %s label below bit label", sig)
		}
	}
}

func TestFolds(t *testing.T) {
	folds := Folds(21, 10, 1)
	seen := map[int]int{}
	for _, f := range folds {
		for _, d := range f {
			seen[d]++
		}
	}
	if len(seen) != 21 {
		t.Errorf("folds cover %d designs", len(seen))
	}
	for d, c := range seen {
		if c != 1 {
			t.Errorf("design %d in %d folds", d, c)
		}
	}
	if len(folds) != 10 {
		t.Errorf("%d folds", len(folds))
	}
}

func TestFoldsClampsK(t *testing.T) {
	// k < 1 used to panic on i%k; it must degrade to one fold over all
	// designs, deterministically.
	for _, k := range []int{-3, 0, 1} {
		folds := Folds(5, k, 1)
		if len(folds) != 1 || len(folds[0]) != 5 {
			t.Fatalf("k=%d: folds %v, want one fold of 5", k, folds)
		}
	}
	// k > n clamps to leave-one-out.
	folds := Folds(3, 10, 1)
	if len(folds) != 3 {
		t.Fatalf("k>n: %d folds, want 3", len(folds))
	}
	for _, f := range folds {
		if len(f) != 1 {
			t.Fatalf("k>n: fold %v, want singletons", f)
		}
	}
	if Folds(0, 4, 1) != nil {
		t.Fatal("n=0 must return no folds")
	}
	// Determinism in (n, k, seed).
	a, b := Folds(7, 3, 42), Folds(7, 3, 42)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("Folds not deterministic")
			}
		}
	}
}

// TestValidatePeriod: 0 (automatic) and finite positive clocks pass;
// negative, NaN and infinite ones are rejected with a message naming the
// period.
func TestValidatePeriod(t *testing.T) {
	for _, p := range []float64{0, 0.5, 1000} {
		if err := ValidatePeriod(p); err != nil {
			t.Errorf("ValidatePeriod(%v) = %v, want ok", p, err)
		}
	}
	for _, p := range []float64{-1, -1e-9, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := ValidatePeriod(p); err == nil || !strings.Contains(err.Error(), "period") {
			t.Errorf("ValidatePeriod(%v) = %v, want an error naming the period", p, err)
		}
	}
}

func TestBuildAllParallelSubset(t *testing.T) {
	specs := designs.All()[:3]
	data, err := BuildAll(specs, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 3 {
		t.Fatalf("built %d", len(data))
	}
	for i, dd := range data {
		if dd.Spec.Name != specs[i].Name {
			t.Errorf("order broken: %s vs %s", dd.Spec.Name, specs[i].Name)
		}
	}
}
