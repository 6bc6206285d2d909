// Command experiments regenerates every table and figure of the paper's
// evaluation section (§4) and writes them under a results directory:
// aligned text tables, CSV versions, and long-form CSV series for the
// figures.
//
// Usage:
//
//	experiments [-run all|table2|table3|table4|table4overall|table5|table6|fig4|fig5a..fig5d|runtime|importance]
//	            [-out results] [-folds 10] [-fast]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rtltimer/internal/engine"
	"rtltimer/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	run := flag.String("run", "all", "which experiment to run")
	out := flag.String("out", "results", "output directory")
	folds := flag.Int("folds", 10, "cross-validation folds over designs")
	fast := flag.Bool("fast", false, "reduced model sizes")
	scale := flag.Int("scale", 0, "design scale override")
	seed := flag.Int64("seed", 1, "experiment seed")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "max concurrent evaluation workers (0 = all cores)")
	shards := flag.Int("shards", 0, "register-bounded design shards for edits, partitioned on a base's first edit (0 or 1 = monolithic)")
	cacheDir := flag.String("cache-dir", "", "persistent representation cache directory (empty = memory only)")
	stats := flag.Bool("stats", false, "print engine cache statistics at the end of the run")
	flag.Parse()

	if err := engine.ValidateConcurrency(*jobs, *shards); err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	if *cacheDir != "" {
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			log.Fatalf("-cache-dir: %v", err)
		}
	}
	suite := exp.NewSuite(exp.Config{
		Folds: *folds, Fast: *fast, Scale: *scale, Seed: *seed, Jobs: *jobs,
		Shards: *shards, CacheDir: *cacheDir,
	})

	tables := map[string]func() (*exp.Table, error){
		"table2":        suite.Table2,
		"table3":        suite.Table3,
		"table4":        suite.Table4FineGrained,
		"table4overall": suite.Table4Overall,
		"table5":        suite.Table5,
		"table6":        suite.Table6,
		"runtime":       suite.RuntimeReport,
		"importance":    suite.FeatureImportance,
		"ablation-k":    suite.AblationSampling,
		"ablation-ens":  suite.AblationEnsembleSize,
	}
	figures := map[string]func() (*exp.Figure, error){
		"fig4":  suite.Fig4,
		"fig5a": suite.Fig5a,
		"fig5b": suite.Fig5b,
		"fig5c": suite.Fig5c,
		"fig5d": suite.Fig5d,
	}
	order := []string{"table2", "table3", "table4", "table4overall", "table5", "table6",
		"fig4", "fig5a", "fig5b", "fig5c", "fig5d", "runtime", "importance",
		"ablation-k", "ablation-ens"}

	selected := strings.Split(*run, ",")
	want := func(name string) bool {
		for _, s := range selected {
			if s == "all" || s == name {
				return true
			}
		}
		return false
	}
	for _, name := range order {
		if !want(name) {
			continue
		}
		start := time.Now()
		if fn, ok := tables[name]; ok {
			tab, err := fn()
			if err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			fmt.Println(tab.Render())
			must(os.WriteFile(filepath.Join(*out, name+".txt"), []byte(tab.Render()), 0o644))
			must(os.WriteFile(filepath.Join(*out, name+".csv"), []byte(tab.CSV()), 0o644))
		} else if fn, ok := figures[name]; ok {
			fig, err := fn()
			if err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			fmt.Println(fig.Summary())
			must(os.WriteFile(filepath.Join(*out, name+".csv"), []byte(fig.CSV()), 0o644))
			must(os.WriteFile(filepath.Join(*out, name+".txt"), []byte(fig.Summary()), 0o644))
		} else {
			log.Fatalf("unknown experiment %q", name)
		}
		log.Printf("%s done in %v", name, time.Since(start).Round(time.Millisecond))
	}
	if *stats {
		st := suite.CacheStats()
		log.Printf("representation cache: %d graph builds, %d memory hits, %d delta derivations (%d shard-local), %d evictions",
			st.Builds, st.Hits, st.Edits, st.ShardEdits, st.Evictions)
		if *cacheDir != "" {
			log.Printf("disk cache %s: %d hits, %d misses, %d entries written, %d I/O errors, %d quarantined",
				*cacheDir, st.DiskHits, st.DiskMisses, st.DiskWrites, st.DiskErrors, st.Quarantined)
		}
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
