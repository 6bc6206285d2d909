// Optimize: the paper's second application (§3.5.2) — use RTL-Timer's
// fine-grained predictions to drive group_path and retime during logic
// synthesis, and compare the result against the default flow. Before the
// synthesis comparison, the pseudo-netlist itself is optimized through the
// incremental STA session (rtltimer.ExploreRewrites): every candidate
// rewrite re-times only its downstream cone instead of paying a full
// re-analysis, which is what makes edit-driven exploration loops viable.
package main

import (
	"fmt"
	"log"

	"rtltimer"
)

func main() {
	log.SetFlags(0)
	const target = "b18_1"
	src, err := rtltimer.BenchmarkVerilog(target)
	if err != nil {
		log.Fatal(err)
	}

	// Stage 1: incremental pseudo-STA rewrite exploration. Each BOG
	// representation is 5%-overconstrained against its own critical path
	// and greedily rebalanced; the per-trial cost is the affected cone,
	// not the design.
	fmt.Printf("incremental pseudo-STA rewrite exploration on %s...\n", target)
	rewrites, err := rtltimer.ExploreRewrites(src, rtltimer.RewriteOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-5s %9s %9s %9s %9s %7s  %s\n",
		"rep", "WNS0", "WNS*", "TNS0", "TNS*", "kept", "retimed vs full")
	for _, r := range rewrites {
		full := int64(r.EditsTried) * int64(r.NodesTotal)
		fmt.Printf("%-5s %9.3f %9.3f %9.2f %9.2f %7d  %d/%d node retimings\n",
			r.Variant, r.StartWNS, r.FinalWNS, r.StartTNS, r.FinalTNS,
			r.EditsApplied, r.NodesRetimed, full)
	}

	// Stage 2: prediction-guided synthesis, as in the paper.
	fmt.Printf("\ntraining RTL-Timer with %s held out...\n", target)
	pred, err := rtltimer.TrainBenchmarkPredictor(rtltimer.Options{
		Fast:          true,
		ExcludeDesign: target,
		Seed:          1,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := pred.PredictVerilog(src)
	if err != nil {
		log.Fatal(err)
	}

	// Default synthesis flow.
	base, err := rtltimer.Synthesize(src, rtltimer.SynthOptions{PeriodNS: res.PeriodNS, Seed: 306})
	if err != nil {
		log.Fatal(err)
	}

	// Prediction-guided flow: the predicted criticality groups feed
	// group_path with the plan's weights, the predicted top-5% endpoints
	// feed retime.
	groups, weights, retime := res.OptimizationPlan()
	opt, err := rtltimer.Synthesize(src, rtltimer.SynthOptions{
		PeriodNS:     res.PeriodNS,
		Seed:         306,
		Groups:       groups,
		GroupWeights: weights,
		RetimeRefs:   retime,
		ExtraEffort:  true,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-22s %12s %12s %10s %10s\n", "flow", "WNS (ns)", "TNS (ns)", "area", "power")
	row := func(name string, r *rtltimer.SynthReport) {
		fmt.Printf("%-22s %12.3f %12.2f %10.1f %10.1f\n", name, r.WNS, r.TNS, r.AreaUM2, r.Power)
	}
	row("default", base)
	row("group_path + retime", opt)
	dW := pct(opt.WNS, base.WNS)
	dT := pct(opt.TNS, base.TNS)
	fmt.Printf("\nWNS %+.1f%%, TNS %+.1f%% (negative = violation shrank)\n", dW, dT)
	fmt.Printf("after placement+opt: default %.2f ns TNS vs optimized %.2f ns TNS\n",
		base.PlacedTNS, opt.PlacedTNS)
}

func pct(opt, base float64) float64 {
	if base == 0 {
		return 0
	}
	a, b := opt, base
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	return (a - b) / b * 100
}
