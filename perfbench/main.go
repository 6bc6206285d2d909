// Command perfbench is the repository benchmark: it runs one of four
// seeded workloads against the public entry points (service.Service, its
// HTTP Handler, and fresh-service CLI paths), checks every answer, and
// prints the end-to-end metrics, or with -trace 1 the per-layer metrics of
// a traced replay. See README.md for the workloads and the metric map.
//
//	perfbench -workload cold-build|disk-warm|warm-query|edit-session
//	          -seed N -seconds S -trace 0|1 [-out DIR]
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"rtltimer/internal/engine"
)

// setupRepeats is how many times a measured run sets its workload up; the
// reported set-up time is their median, and the last set-up is measured.
const setupRepeats = 5

// workload is one of the benchmark's four user paths.
type workload interface {
	name() string
	// prepare generates the op sequence over suite from the seed, before
	// any timing.
	prepare(seed int64, seconds int, work string, suite []design)
	opCount() int
	// reset releases the previous set-up's state and scratch directories;
	// it runs untimed before every set-up and when the run ends.
	reset() error
	// setup makes the workload ready from scratch; it is timed.
	setup(ctx context.Context) error
	// verify prepares the oracles and checks the set-up state, untimed.
	verify(ctx context.Context) error
	// measure runs the op sequence untraced.
	measure(ctx context.Context) *phase
	// traceSetup and traceOps replay the op sequence with spans.
	traceSetup(ctx context.Context, tr *tracer) error
	traceOps(ctx context.Context, tr *tracer) error
	// shardDecisions is the engine's auto-shard decision per design.
	shardDecisions() []string
}

func newWorkload(name string) workload {
	switch name {
	case "cold-build":
		return &cliWorkload{}
	case "disk-warm":
		return &cliWorkload{disk: true}
	case "warm-query":
		return &warmWorkload{}
	case "edit-session":
		return &editWorkload{}
	}
	return nil
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the run record written beside the metrics.
type record struct {
	Workload      string    `json:"workload"`
	Seed          int64     `json:"seed"`
	Seconds       int       `json:"seconds"`
	Trace         bool      `json:"trace"`
	Ops           int       `json:"ops"`
	Callers       int       `json:"callers"`
	NProc         int       `json:"nproc"`
	GOMAXPROCS    int       `json:"gomaxprocs"`
	GoVersion     string    `json:"go_version"`
	SetupSeconds  []float64 `json:"setup_seconds"`
	StealSetupPct float64   `json:"steal_setup_pct"`
	StealTimedPct float64   `json:"steal_timed_pct"`
	TimedSeconds  float64   `json:"timed_seconds"`
	ShardDecision []string  `json:"shard_decision"` // design:SOG AIG AIMG XAG, S = sharded
	Errors        []string  `json:"errors,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "cold-build, disk-warm, warm-query or edit-session")
	seed := fs.Int64("seed", 1, "workload seed (1 is the development seed; hold out another, e.g. 2, to check a claim)")
	seconds := fs.Int("seconds", 15, "nominal length of the timed phase; fixes the op count")
	trace := fs.Int("trace", 0, "1 replays the ops with spans and prints the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for run records, spans and scratch caches")
	only := fs.String("designs", "", "comma-separated suite designs to run on instead of all 21 (quick runs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := newWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload cold-build|disk-warm|warm-query|edit-session, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	suite, err := loadSuite(*only)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	work := filepath.Join(*out, fmt.Sprintf("work-%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	defer w.reset()

	rec := record{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Callers: callers(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	w.prepare(*seed, *seconds, work, suite)
	res, err := execute(context.Background(), w, *trace == 1, &rec, *out, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rec.Ops = w.opCount()
	rec.ShardDecision = w.shardDecisions()
	if err := writeJSONFile(filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.record.json", *name, *seed, *trace)), rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printSummary(stdout, &rec, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// quiesce flushes pending disk writeback and collects the heap, so a phase
// starts from the same state whatever ran before it.
func quiesce() {
	syscall.Sync()
	runtime.GC()
}

func execute(ctx context.Context, w workload, traced bool, rec *record, out string, seed int64) (*result, error) {
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var setups []float64
	steal := startSteal()
	for range repeats {
		if err := w.reset(); err != nil {
			return nil, err
		}
		quiesce()
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rec.StealSetupPct = steal.pct()
	rec.SetupSeconds = setups
	res := &result{Correct: true, Metrics: map[string]metric{}}
	if err := w.verify(ctx); err != nil {
		// A wrong answer before timing fails every op; nothing is measured.
		rec.Errors = append(rec.Errors, "verify: "+err.Error())
		res.Correct, res.Attempted = false, max(1, w.opCount())
		res.Failed = res.Attempted
		if traced {
			for _, m := range layers {
				res.Metrics[m.name] = metric{Unit: m.unit}
			}
		} else {
			for _, m := range endToEnd {
				res.Metrics[m.name] = metric{Unit: m.unit}
			}
		}
		return res, nil
	}
	quiesce()
	steal = startSteal()
	t0 := time.Now()
	ph := w.measure(ctx)
	rec.TimedSeconds = time.Since(t0).Seconds()
	rec.StealTimedPct = steal.pct()
	res.Attempted, res.Failed = ph.attempted, ph.failed
	if ph.failed > 0 {
		res.Correct = false
	}
	rec.Errors = append(rec.Errors, ph.errors...)
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: m.value(ph, setups), Unit: m.unit}
		}
		return res, nil
	}
	tr := newTracer()
	quiesce()
	if err := w.traceSetup(ctx, tr); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	if err := w.traceOps(ctx, tr); err != nil {
		res.Correct = false
		rec.Errors = append(rec.Errors, "trace: "+err.Error())
	}
	if err := tr.write(filepath.Join(out, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name(), seed))); err != nil {
		return nil, err
	}
	res.Metrics = layerMetrics(tr, ph, w.opCount())
	return res, nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printSummary prints a readable table of the run before the result line.
func printSummary(w io.Writer, rec *record, res *result) {
	fmt.Fprintf(w, "perfbench %s seed=%d ops=%d callers=%d nproc=%d gomaxprocs=%d %s\n",
		rec.Workload, rec.Seed, rec.Ops, rec.Callers, rec.NProc, rec.GOMAXPROCS, rec.GoVersion)
	fmt.Fprintf(w, "  set-up %v s, steal %.1f%% (set-up) %.1f%% (timed), timed phase %.2f s\n",
		rec.SetupSeconds, rec.StealSetupPct, rec.StealTimedPct, rec.TimedSeconds)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

// phase is what an untraced run of the op sequence measured.
type phase struct {
	attempted, failed int
	errors            []string

	lats    []float64     // per-op wall latency, ms
	wall    time.Duration // timed-phase wall time throughput divides by
	use     usage         // process counters charged to the phase
	heap    []float64     // live-heap samples, MB, every fixed number of ops
	memUsed []float64     // engine memory-tier samples taken with heap, MB
	stats   engine.Stats
	shed    int64
	// editRequests is how many /session/edit calls the phase made.
	editRequests int64
}

func (p *phase) fail(err error) {
	p.failed++
	if len(p.errors) < 10 {
		p.errors = append(p.errors, err.Error())
	}
}

// addEngineStats returns a + sign·b over the counters the benchmark reports.
func addEngineStats(a, b engine.Stats, sign int64) engine.Stats {
	a.Builds += sign * b.Builds
	a.Hits += sign * b.Hits
	a.DiskHits += sign * b.DiskHits
	a.Edits += sign * b.Edits
	a.ShardEdits += sign * b.ShardEdits
	a.Evictions += sign * b.Evictions
	a.DiskErrors += sign * b.DiskErrors
	a.Quarantined += sign * b.Quarantined
	return a
}

// e2eMetric is one end-to-end metric and how a phase yields it.
type e2eMetric struct {
	name, unit string
	value      func(p *phase, setups []float64) float64
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", func(_ *phase, s []float64) float64 { return median(append([]float64(nil), s...)) }},
	{"latency_p50_ms", "ms", func(p *phase, _ []float64) float64 { return quantile(p.lats, 0.5) }},
	{"latency_p90_ms", "ms", func(p *phase, _ []float64) float64 { return quantile(p.lats, 0.9) }},
	{"throughput_ops", "1/s", func(p *phase, _ []float64) float64 { return float64(len(p.lats)) / p.wall.Seconds() }},
	{"cpu_ms_per_op", "ms", func(p *phase, _ []float64) float64 { return ms(p.use.cpu) / float64(len(p.lats)) }},
	{"alloc_mb_per_op", "MB", func(p *phase, _ []float64) float64 { return float64(p.use.alloc) / mb / float64(len(p.lats)) }},
	{"mem_p90_mb", "MB", func(p *phase, _ []float64) float64 { return quantile(p.heap, 0.9) }},
}
