// Command experiments regenerates every table and figure of the paper's
// evaluation section (§4) and writes them under a results directory:
// aligned text tables, CSV versions, and long-form CSV series for the
// figures.
//
// Usage:
//
//	experiments [-run all|table2|table3|table4|table4overall|table5|table6|fig4|fig5a..fig5d|runtime|importance|ablation-k|ablation-ens]
//	            [-out results] [-folds 10] [-fast]
//
// Each distinct model trains once per run and is shared by every
// requested table and figure that reads it. -run rejects a name that is
// no experiment before any work starts.
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

// experiment is one table or figure the command writes; exactly one of
// table and figure is set.
type experiment struct {
	name   string
	table  func(*exp.Suite) (*exp.Table, error)
	figure func(*exp.Suite) (*exp.Figure, error)
}

// experiments lists every experiment in the order a run writes them.
var experiments = []experiment{
	{name: "table2", table: (*exp.Suite).Table2},
	{name: "table3", table: (*exp.Suite).Table3},
	{name: "table4", table: (*exp.Suite).Table4FineGrained},
	{name: "table4overall", table: (*exp.Suite).Table4Overall},
	{name: "table5", table: (*exp.Suite).Table5},
	{name: "table6", table: (*exp.Suite).Table6},
	{name: "fig4", figure: (*exp.Suite).Fig4},
	{name: "fig5a", figure: (*exp.Suite).Fig5a},
	{name: "fig5b", figure: (*exp.Suite).Fig5b},
	{name: "fig5c", figure: (*exp.Suite).Fig5c},
	{name: "fig5d", figure: (*exp.Suite).Fig5d},
	{name: "runtime", table: (*exp.Suite).RuntimeReport},
	{name: "importance", table: (*exp.Suite).FeatureImportance},
	{name: "ablation-k", table: (*exp.Suite).AblationSampling},
	{name: "ablation-ens", table: (*exp.Suite).AblationEnsembleSize},
}

// selectExperiments resolves a -run list (comma-separated names, or
// "all") to the experiments to run, in run order. Every entry must be
// "all" or an experiment's name.
func selectExperiments(run string) ([]experiment, error) {
	known := map[string]bool{"all": true}
	for _, e := range experiments {
		known[e.name] = true
	}
	want := map[string]bool{}
	for _, name := range strings.Split(run, ",") {
		if !known[name] {
			return nil, fmt.Errorf("-run: unknown experiment %q", name)
		}
		want[name] = true
	}
	var out []experiment
	for _, e := range experiments {
		if want["all"] || want[e.name] {
			out = append(out, e)
		}
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	run := flag.String("run", "all", "comma-separated experiments to run, or all")
	out := flag.String("out", "results", "output directory")
	folds := flag.Int("folds", 10, "cross-validation folds over designs")
	fast := flag.Bool("fast", false, "reduced model sizes")
	scale := flag.Int("scale", 0, "design scale override")
	seed := flag.Int64("seed", 1, "experiment seed")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "max concurrent evaluation workers (0 = all cores)")
	cacheDir := flag.String("cache-dir", "", "persistent representation cache directory (empty = memory only)")
	stats := flag.Bool("stats", false, "print engine cache statistics at the end of the run")
	flag.Parse()

	selected, err := selectExperiments(*run)
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.ValidateConcurrency(*jobs); err != nil {
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
		CacheDir: *cacheDir,
	})

	for _, e := range selected {
		start := time.Now()
		if e.table != nil {
			tab, err := e.table(suite)
			if err != nil {
				log.Fatalf("%s: %v", e.name, err)
			}
			fmt.Println(tab.Render())
			must(os.WriteFile(filepath.Join(*out, e.name+".txt"), []byte(tab.Render()), 0o644))
			must(os.WriteFile(filepath.Join(*out, e.name+".csv"), []byte(tab.CSV()), 0o644))
		} else {
			fig, err := e.figure(suite)
			if err != nil {
				log.Fatalf("%s: %v", e.name, err)
			}
			fmt.Println(fig.Summary())
			must(os.WriteFile(filepath.Join(*out, e.name+".csv"), []byte(fig.CSV()), 0o644))
			must(os.WriteFile(filepath.Join(*out, e.name+".txt"), []byte(fig.Summary()), 0o644))
		}
		log.Printf("%s done in %v", e.name, time.Since(start).Round(time.Millisecond))
	}
	if *stats {
		st := suite.CacheStats()
		log.Printf("representation cache: %d graph builds, %d memory hits, %d delta derivations, %d evictions",
			st.Builds, st.Hits, st.Edits, st.Evictions)
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
