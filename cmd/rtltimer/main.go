// Command rtltimer is the end-user tool of this repository: it trains the
// RTL-Timer model on the benchmark suite (leaving the target design out if
// it is one of the benchmarks) and predicts fine-grained per-signal slack,
// criticality groups, and design WNS/TNS for a Verilog design — optionally
// writing the slack annotations directly onto the source (paper §3.5.1).
//
// It also exposes the period-free representation cache directly as a
// frequency-exploration workload: -sweep produces a WNS/TNS-vs-period
// curve and -fmax reports the maximum frequency, both from a single
// bit-blast + forward pass per BOG variant (arrival times are period-free;
// each period only pays the endpoint slack loop, and the critical period
// is the worst endpoint arrival plus setup, in closed form). -optimize
// runs the incremental-STA reassociation loop on every representation:
// each trial edit re-times only its downstream cone through
// sta.Incremental, and the winning delta is re-derived through the
// engine's delta-keyed cache.
//
// Usage:
//
//	rtltimer -in design.v [-annotate out.v] [-period 0.6] [-fast]
//	rtltimer -bench b18_1 [-annotate out.v]
//	rtltimer -bench b18_1 -sweep 0.3:0.9:13
//	rtltimer -in design.v -fmax
//	rtltimer -bench b18_1 -optimize [-opt-passes 4]
//	rtltimer -cache-dir .cache -cache-scrub [-cache-budget 64M]
//
// -cache-dir persists representations across runs. Processes may share
// one directory: each builds the entries it misses, and publishes are
// atomic, so a duplicate build rewrites the same bytes. -cache-scrub is
// the offline maintenance mode: it reads every entry through the store a
// warm load uses and validates it the way a warm load would, quarantines
// corrupt ones under quarantine/ (one specimen per distinct corrupt
// entry), counts the entries it cannot read and the intact ones of
// another entry version and leaves both in place, reclaims temp files
// orphaned by killed processes (no run opening the cache does), and
// (with -cache-budget) evicts least-recently-modified entries to a size
// budget.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"

	"rtltimer/internal/annotate"
	"rtltimer/internal/core"
	"rtltimer/internal/dataset"
	"rtltimer/internal/designs"
	"rtltimer/internal/engine"
	"rtltimer/internal/metrics"
	"rtltimer/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtltimer: ")
	in := flag.String("in", "", "input Verilog file")
	bench := flag.String("bench", "", "predict a named benchmark design instead of a file")
	annotateOut := flag.String("annotate", "", "write the slack-annotated source to this file")
	period := flag.Float64("period", 0, "clock period in ns (0 = automatic)")
	fast := flag.Bool("fast", true, "reduced model sizes (faster training)")
	seed := flag.Int64("seed", 1, "model seed")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "max concurrent evaluation workers (0 = all cores)")
	saveModel := flag.String("save-model", "", "save the trained model to this file")
	loadModel := flag.String("load-model", "", "load a previously saved model instead of training")
	sweep := flag.String("sweep", "", "pseudo-STA period sweep lo:hi:steps (ns), e.g. 0.3:0.9:13")
	fmax := flag.Bool("fmax", false, "report the maximum pseudo-STA frequency (closed-form critical period)")
	optimize := flag.Bool("optimize", false, "run the incremental-STA reassociation optimizer on every representation")
	optPasses := flag.Int("opt-passes", 4, "greedy passes of the -optimize loop")
	cacheDir := flag.String("cache-dir", "", "persistent representation cache directory (empty = memory only)")
	cacheScrub := flag.Bool("cache-scrub", false, "validate every entry under -cache-dir, quarantine corrupt ones, reclaim stale temps, then exit")
	cacheBudget := flag.String("cache-budget", "", "with -cache-scrub: evict least-recently-modified entries until the cache fits this size (e.g. 64M, 2G)")
	stats := flag.Bool("stats", false, "print engine cache statistics at the end of the run")
	flag.Parse()

	// Offline cache maintenance is its own mode: no design, no model — just
	// the scrub pass and its report.
	if *cacheScrub {
		if *cacheDir == "" {
			log.Fatal("-cache-scrub requires -cache-dir")
		}
		var opts engine.ScrubOptions
		if *cacheBudget != "" {
			budget, berr := engine.ParseSizeBudget(*cacheBudget)
			if berr != nil {
				log.Fatalf("-cache-budget: %v", berr)
			}
			opts.Budget = budget
		}
		report, serr := engine.ScrubCache(*cacheDir, opts)
		if serr != nil {
			log.Fatalf("-cache-scrub: %v", serr)
		}
		fmt.Printf("cache %s: %s\n", *cacheDir, report)
		return
	}
	if *cacheBudget != "" {
		log.Fatal("-cache-budget only applies to -cache-scrub")
	}
	if (*in == "") == (*bench == "") {
		log.Fatal("exactly one of -in or -bench is required")
	}
	if err := engine.ValidateConcurrency(*jobs); err != nil {
		log.Fatal(err)
	}
	if *optPasses < 0 {
		log.Fatalf("-opt-passes must not be negative, got %d", *optPasses)
	}
	if err := dataset.ValidatePeriod(*period); err != nil {
		log.Fatalf("-period: %v", err)
	}

	eng := engine.New(*jobs)
	if *cacheDir != "" {
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			log.Fatalf("-cache-dir: %v", err)
		}
		eng.SetCacheDir(*cacheDir)
	}

	// Resolve the target's name and source up front: every mode needs them.
	var targetName, srcText string
	var targetSpec designs.Spec
	if *bench != "" {
		spec, ok := designs.ByName(*bench)
		if !ok {
			log.Fatalf("unknown benchmark %q", *bench)
		}
		targetSpec = spec
		targetName = spec.Name
		srcText = designs.Generate(spec)
	} else {
		raw, rerr := os.ReadFile(*in)
		if rerr != nil {
			log.Fatal(rerr)
		}
		targetName = *in
		srcText = string(raw)
		targetSpec = designs.Spec{Name: *in, Seed: *seed}
	}

	// Pseudo-STA-only modes: no training corpus, no synthesis ground truth
	// — one cached representation build per variant serves every period
	// (-sweep/-fmax) and every optimizer trial (-optimize).
	if *sweep != "" || *fmax || *optimize {
		if *annotateOut != "" || *saveModel != "" || *loadModel != "" {
			log.Fatal("-sweep/-fmax/-optimize run pseudo-STA only and cannot be combined with -annotate, -save-model or -load-model")
		}
		var periods []float64
		if *sweep != "" {
			var perr error
			if periods, perr = service.ParseSweep(*sweep); perr != nil {
				log.Fatal(perr)
			}
		}
		// The fan-out and renderers live in internal/service, shared with
		// rtltimerd, so a daemon response is byte-identical to this output
		// by construction.
		reps, err := service.BuildSweepReps(context.Background(), eng, targetName, srcText)
		if err != nil {
			log.Fatal(err)
		}
		if *sweep != "" {
			service.RenderSweep(os.Stdout, targetName, reps, periods)
		}
		if *fmax {
			service.RenderFmax(os.Stdout, targetName, reps)
		}
		if *optimize {
			if err := runOptimize(os.Stdout, targetName, reps, *period, *optPasses); err != nil {
				log.Fatal(err)
			}
		}
		printStats(eng, *stats)
		return
	}

	// Build the training corpus: all benchmark designs except the target.
	var train []*dataset.DesignData
	var err error
	if *loadModel == "" {
		opts := dataset.BuildOptions{Engine: eng}
		var trainSpecs []designs.Spec
		for _, s := range designs.All() {
			if s.Name == *bench {
				continue
			}
			trainSpecs = append(trainSpecs, s)
		}
		log.Printf("building %d training designs...", len(trainSpecs))
		train, err = dataset.BuildAll(trainSpecs, opts)
		if err != nil {
			log.Fatal(err)
		}
	}

	// Target design.
	target, err := dataset.BuildFromSource(targetSpec, srcText,
		dataset.BuildOptions{Period: *period, Engine: eng})
	if err != nil {
		log.Fatal(err)
	}

	var model *core.Model
	if *loadModel != "" {
		model, err = core.LoadFile(*loadModel)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded model from %s", *loadModel)
	} else {
		copts := core.DefaultOptions()
		copts.Seed = *seed
		copts.SetEngine(eng)
		if *fast {
			copts.BitTreeOpts.NumTrees = 50
			copts.EnsembleOpts.NumTrees = 50
			copts.SignalOpts.NumTrees = 50
			copts.LTROpts.NumTrees = 40
		}
		log.Printf("training RTL-Timer (4 representations, max-loss trees, LambdaMART)...")
		model, err = core.Train(train, copts)
		if err != nil {
			log.Fatal(err)
		}
		if *saveModel != "" {
			if err := model.SaveFile(*saveModel); err != nil {
				log.Fatal(err)
			}
			log.Printf("model saved to %s", *saveModel)
		}
	}
	// The training corpus's graphs are consumed once the model exists;
	// release their cache entries so a big corpus does not stay pinned for
	// the rest of the run. Only the target design's entries stay warm.
	train = nil
	eng.Retain(engine.DesignTag(targetName, srcText))

	pred := model.Predict(target)

	fmt.Printf("design    %s  (clock %.2f ns)\n", target.Design.Name, target.Period)
	fmt.Printf("predicted WNS %.3f ns, TNS %.2f ns\n", pred.WNS, pred.TNS)
	fmt.Printf("actual    WNS %.3f ns, TNS %.2f ns  (synthesis substrate ground truth)\n",
		target.LabelWNS, target.LabelTNS)
	fmt.Printf("bit-wise  R = %.3f over %d endpoints\n", metrics.Pearson(target.EPLabels, pred.BitAT), len(target.EPLabels))

	sigs := append([]core.SignalPrediction(nil), pred.Signals...)
	sort.Slice(sigs, func(i, j int) bool { return sigs[i].Slack < sigs[j].Slack })
	fmt.Printf("\nmost critical signals:\n")
	for i := 0; i < len(sigs) && i < 12; i++ {
		s := sigs[i]
		fmt.Printf("  %-28s slack %+.3f ns  rank g%d\n", s.Name, s.Slack, s.Group+1)
	}
	if *annotateOut != "" {
		out, aerr := annotate.Annotate(srcText, pred)
		if aerr != nil {
			log.Fatal(aerr)
		}
		if err := os.WriteFile(*annotateOut, []byte(out), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nannotated source written to %s\n", *annotateOut)
	}
	printStats(eng, *stats)
}

// printStats reports the engine's cache counters when -stats is set: how
// many graph builds ran, how many were avoided by each cache tier, and
// what the run persisted for the next one.
func printStats(eng *engine.Engine, enabled bool) {
	if !enabled {
		return
	}
	st := eng.Stats()
	fmt.Printf("\nengine cache: %d graph builds, %d memory hits, %d delta derivations, %d evictions\n",
		st.Builds, st.Hits, st.Edits, st.Evictions)
	if eng.CacheDir() != "" {
		fmt.Printf("disk cache %s: %d hits, %d misses, %d entries written, %d I/O errors, %d quarantined\n",
			eng.CacheDir(), st.DiskHits, st.DiskMisses, st.DiskWrites, st.DiskErrors, st.Quarantined)
	}
}
