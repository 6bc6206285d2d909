package service

import (
	"bytes"
	"context"
	"math"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/engine"
)

// bisectFmax is the bisection FmaxSearch used before the closed form, kept
// as its oracle: bracket [0, hi] with hi doubled until WNS >= 0, then
// bisect to 0.1 ps. ok is false when no feasible period lies below 1e6 ns.
func bisectFmax(rr *engine.RepResult) (period float64, ok bool) {
	wnsAt := func(p float64) float64 {
		wns, _ := rr.Summary(p)
		return wns
	}
	hi := 1.0
	for wnsAt(hi) < 0 {
		hi *= 2
		if hi > 1e6 {
			return 0, false
		}
	}
	lo := 0.0
	for hi-lo > 1e-4 {
		mid := (lo + hi) / 2
		if wnsAt(mid) >= 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// TestFmaxIsLeastFeasiblePeriod: on every suite (design, variant) pair,
// FmaxSearch's period meets timing (WNS >= 0), the next float below it
// does not, and the bisection oracle lands within its 0.1 ps tolerance
// above it. The daemon's /fmax text equals what `rtltimer -fmax` prints
// for every suite design.
func TestFmaxIsLeastFeasiblePeriod(t *testing.T) {
	svc := newService(t, Config{Jobs: 2})
	cliEng := engine.New(2)
	pairs := 0
	for _, spec := range designs.All() {
		reps, err := BuildSweepReps(context.Background(), cliEng, spec.Name, designs.Generate(spec))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range bog.Variants() {
			rr := reps[v]
			if len(rr.Graph.Endpoints) == 0 {
				t.Fatalf("%s %v: no timing endpoints", spec.Name, v)
			}
			pairs++
			p := FmaxSearch(rr)
			if wns, _ := rr.Summary(p); wns < 0 {
				t.Errorf("%s %v: WNS %g < 0 at FmaxSearch's period %v", spec.Name, v, wns, p)
			}
			below := math.Nextafter(p, 0)
			if wns, _ := rr.Summary(below); wns >= 0 {
				t.Errorf("%s %v: period %v one ulp below FmaxSearch's %v still meets timing", spec.Name, v, below, p)
			}
			if q, ok := bisectFmax(rr); !ok || q < p || q > p+1e-4 {
				t.Errorf("%s %v: bisection oracle %v (ok %v) outside [%v, %v+1e-4]", spec.Name, v, q, ok, p, p)
			}
		}
		var cli bytes.Buffer
		RenderFmax(&cli, spec.Name, reps)
		fm, err := svc.Fmax(context.Background(), FmaxRequest{Design: DesignRef{Bench: spec.Name}})
		if err != nil {
			t.Fatal(err)
		}
		if fm.Text != cli.String() {
			t.Errorf("%s: /fmax text differs from the CLI's:\n%s\n--- CLI ---\n%s", spec.Name, fm.Text, cli.String())
		}
		for i, fv := range fm.Results {
			if !fv.Feasible || fv.Period != FmaxSearch(reps[bog.Variants()[i]]) {
				t.Errorf("%s %s: /fmax result %+v, want the feasible period FmaxSearch returns", spec.Name, fv.Variant, fv)
			}
		}
	}
	if pairs != 84 {
		t.Fatalf("checked %d (design, variant) pairs, want the suite's 84", pairs)
	}
}
