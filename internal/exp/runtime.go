package exp

import (
	"fmt"
	"math/rand"
	"time"

	"rtltimer/internal/bog"
	"rtltimer/internal/core"
	"rtltimer/internal/features"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
	"rtltimer/internal/synth"
)

// RuntimeReport reproduces the §4.5 runtime analysis: the cost of the
// RTL-Timer evaluation flow (BOG construction, register-oriented RTL
// processing, model inference) relative to default synthesis, and the
// overhead of the optimization synthesis flow.
func (s *Suite) RuntimeReport() (*Table, error) {
	data, err := s.Data()
	if err != nil {
		return nil, err
	}
	model, err := s.full()
	if err != nil {
		return nil, err
	}
	var synthTotal, bogTotal, regProcTotal, inferTotal, optTotal time.Duration
	lib := liberty.DefaultPseudoLib()
	for _, dd := range data {
		// Default synthesis.
		t0 := time.Now()
		if _, err := synth.Run(dd.Design, synth.Options{Period: dd.Period, Seed: dd.Spec.Seed}); err != nil {
			return nil, err
		}
		synthTotal += time.Since(t0)

		// BOG construction (the paper measures the slowest variant, AIG).
		t0 = time.Now()
		g, err := bog.Build(dd.Design, bog.AIG)
		if err != nil {
			return nil, err
		}
		bogTotal += time.Since(t0)

		// Register-oriented RTL processing: pseudo-STA, cones, sampling,
		// feature extraction.
		t0 = time.Now()
		r := sta.Analyze(g, lib, dd.Period)
		ext := features.NewExtractor(g, r)
		rng := rand.New(rand.NewSource(1))
		for ep := range g.Endpoints {
			k := sta.SampleCount(ext.Cone(ep).DrivingRegs, 2, 12)
			for _, p := range r.SamplePaths(g, ep, k, rng) {
				_ = ext.PathVector(ep, p)
			}
		}
		regProcTotal += time.Since(t0)

		// Model inference.
		t0 = time.Now()
		_ = model.Predict(dd)
		inferTotal += time.Since(t0)

		// Optimization synthesis (group_path + retime).
		plan := core.LabelPlan(dd)
		t0 = time.Now()
		if _, err := optSynth(dd, plan); err != nil {
			return nil, err
		}
		optTotal += time.Since(t0)
	}
	pctOf := func(d time.Duration) string {
		return fmt.Sprintf("%.1f%%", float64(d)/float64(synthTotal)*100)
	}
	t := &Table{
		Title:  "Runtime analysis (4.5): totals over 21 designs",
		Header: []string{"Stage", "Total", "% of default synthesis"},
		Rows: [][]string{
			{"Default synthesis", synthTotal.Round(time.Millisecond).String(), "100%"},
			{"BOG construction (AIG)", bogTotal.Round(time.Millisecond).String(), pctOf(bogTotal)},
			{"Register-oriented processing", regProcTotal.Round(time.Millisecond).String(), pctOf(regProcTotal)},
			{"Model inference", inferTotal.Round(time.Millisecond).String(), pctOf(inferTotal)},
			{"Optimization synthesis", optTotal.Round(time.Millisecond).String(), pctOf(optTotal)},
		},
	}
	return t, nil
}
