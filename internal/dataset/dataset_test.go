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
	n := len(dd.EPRefs)
	if n == 0 {
		t.Fatal("no labels")
	}
	if len(dd.EPSignals) != n || len(dd.EPIsPO) != n || len(dd.EPLabels) != n || len(dd.EPIndex) != n {
		t.Fatal("misaligned endpoint table")
	}
	if dd.LabelWNS >= dd.Period {
		t.Errorf("WNS %f vs period %f", dd.LabelWNS, dd.Period)
	}
	ref := dd.Reps[bog.Variants()[0]]
	for _, v := range bog.Variants() {
		rep := dd.Reps[v]
		if rep == nil {
			t.Fatalf("missing rep %v", v)
		}
		if len(rep.Groups) != n || len(rep.EPPseudo) != n {
			t.Fatalf("%v: %d groups and %d pseudo arrivals for %d endpoints", v, len(rep.Groups), len(rep.EPPseudo), n)
		}
		// The one table describes every representation's endpoints.
		if len(rep.Graph.Endpoints) != len(ref.Graph.Endpoints) {
			t.Fatalf("%v: %d endpoints, %v has %d", v, len(rep.Graph.Endpoints), bog.Variants()[0], len(ref.Graph.Endpoints))
		}
		for i, ep := range dd.EPIndex {
			e := rep.Graph.Endpoints[ep]
			if e.Ref.String() != dd.EPRefs[i] || e.Ref.Signal != dd.EPSignals[i] || e.IsPO != dd.EPIsPO[i] {
				t.Fatalf("%v: endpoint %d is %s (PO %v), the table holds %s (PO %v)", v, ep, e.Ref, e.IsPO, dd.EPRefs[i], dd.EPIsPO[i])
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
	}
	// Labels positive and finite.
	for i, lab := range dd.EPLabels {
		if math.IsNaN(lab) || lab <= 0 {
			t.Fatalf("label[%d] = %f", i, lab)
		}
	}
}

func TestPseudoSTACorrelatesWithLabels(t *testing.T) {
	// Fig. 5(a): RTL pseudo-STA does not match netlist timing but is
	// clearly correlated — the foundation of learnability.
	dd := buildOne(t, "b17")
	r := pearson(dd.Reps[bog.SOG].EPPseudo, dd.EPLabels)
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
	for i, sig := range dd.EPSignals {
		if dd.EPIsPO[i] {
			continue
		}
		if dd.EPLabels[i] > sl[sig]+1e-12 {
			t.Fatalf("signal %s label below bit label", sig)
		}
	}
	// Signals puts every non-PO endpoint of the table under its signal
	// exactly once, signals in first-appearance order.
	var order []string
	seen := map[string]bool{}
	for i, sig := range dd.EPSignals {
		if !dd.EPIsPO[i] && !seen[sig] {
			seen[sig] = true
			order = append(order, sig)
		}
	}
	covered := make([]bool, len(dd.EPRefs))
	sigs := dd.Signals()
	if len(sigs) != len(order) {
		t.Fatalf("%d signals, want %d", len(sigs), len(order))
	}
	for si, s := range sigs {
		if s.Name != order[si] {
			t.Fatalf("signal %d is %s, want %s", si, s.Name, order[si])
		}
		for k, i := range s.EPs {
			if dd.EPSignals[i] != s.Name || dd.EPIsPO[i] || covered[i] || (k > 0 && i <= s.EPs[k-1]) {
				t.Fatalf("signal %s: endpoint %d (%s) misplaced", s.Name, i, dd.EPRefs[i])
			}
			covered[i] = true
		}
	}
	for i, c := range covered {
		if c == dd.EPIsPO[i] {
			t.Fatalf("endpoint %s (PO %v) covered %v", dd.EPRefs[i], dd.EPIsPO[i], c)
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
