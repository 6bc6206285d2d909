package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rtltimer/internal/designs"
	"rtltimer/internal/engine"
	"rtltimer/internal/service"
)

func TestParseSweep(t *testing.T) {
	cases := []struct {
		in      string
		want    []float64
		wantErr bool
	}{
		{in: "0.3:0.9:13", want: linspace(0.3, 0.9, 13)},
		{in: "0.5:1.0:2", want: []float64{0.5, 1.0}},
		{in: "1:4:4", want: []float64{1, 2, 3, 4}},

		// Shape errors.
		{in: "", wantErr: true},
		{in: "0.3:0.9", wantErr: true},
		{in: "0.3:0.9:13:7", wantErr: true},
		{in: "a:0.9:13", wantErr: true},
		{in: "0.3:b:13", wantErr: true},
		{in: "0.3:0.9:c", wantErr: true},
		{in: "0.3:0.9:2.5", wantErr: true},

		// Degenerate ranges: bounds must be finite, positive, strictly
		// increasing.
		{in: "0.9:0.3:13", wantErr: true},
		{in: "0.5:0.5:13", wantErr: true},
		{in: "0:0.9:13", wantErr: true},
		{in: "-0.3:0.9:13", wantErr: true},
		{in: "NaN:0.9:13", wantErr: true},
		{in: "0.3:NaN:13", wantErr: true},
		{in: "0.3:+Inf:13", wantErr: true},
		// Finite bounds whose steps overflow on the way: (hi-lo)*2 is +Inf.
		{in: "1:1.7e308:3", wantErr: true},
		{in: "1:1.7e308:2", want: []float64{1, 1.7e308}},

		// A sweep needs at least its two endpoints, and a step count an
		// allocation can survive.
		{in: "0.3:0.9:1", wantErr: true},
		{in: "0.3:0.9:0", wantErr: true},
		{in: "0.3:0.9:-5", wantErr: true},
		{in: "0.3:0.9:99999999999", wantErr: true},
	}
	for _, tc := range cases {
		got, err := service.ParseSweep(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("service.ParseSweep(%q) = %v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("service.ParseSweep(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("service.ParseSweep(%q) has %d points, want %d", tc.in, len(got), len(tc.want))
			continue
		}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("service.ParseSweep(%q)[%d] = %v, want %v", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}

// TestFlagValidation table-drives the -jobs validation the CLIs and the
// daemon run before constructing the engine: 0 means all cores, and
// negatives are rejected with a clear error instead of being silently
// coerced.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		jobs    int
		wantErr string // substring; "" = valid
	}{
		{jobs: 0},                           // all cores
		{jobs: 1},                           // serial
		{jobs: 8},                           // explicit fan-out
		{jobs: 64},                          // oversubscribed jobs are allowed
		{jobs: -1, wantErr: "jobs must be"}, // negative jobs
		{jobs: -8, wantErr: "jobs must be"}, //
	}
	for _, tc := range cases {
		err := engine.ValidateConcurrency(tc.jobs)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("ValidateConcurrency(%d) = %v, want ok", tc.jobs, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ValidateConcurrency(%d) = %v, want error containing %q", tc.jobs, err, tc.wantErr)
		}
	}
}

// TestOptPassesRefusedBeforeWork runs the command in a child process
// with a negative -opt-passes, on a benchmark and on a module without
// timing endpoints (whose optimizer run would never reach opt.Optimize):
// both must exit 1 with an error naming the flag, print nothing on stdout,
// and refuse before the engine is built, so the -cache-dir they name is
// never created.
func TestOptPassesRefusedBeforeWork(t *testing.T) {
	dir := t.TempDir()
	noEndpoints := filepath.Join(dir, "noep.v")
	if err := os.WriteFile(noEndpoints, []byte("module noep(input a, input b);\n  wire c = a & b;\nendmodule\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, design := range [][]string{{"-bench", "syscdes"}, {"-in", noEndpoints}} {
		cache := filepath.Join(dir, fmt.Sprintf("cache%d", i))
		args := append(design, "-optimize", "-opt-passes", "-1", "-cache-dir", cache)
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, "\n"))
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: exited with %v, want status 1; stderr:\n%s", design, err, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed to stdout:\n%s", design, stdout.String())
		}
		if !strings.Contains(stderr.String(), "-opt-passes") {
			t.Errorf("%v: error does not name the flag: %q", design, stderr.String())
		}
		if _, err := os.Stat(cache); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%v: -cache-dir exists after the refusal (%v): the run got past flag checking", design, err)
		}
	}
}

func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// TestSweepWarmCacheZeroBuilds drives the CLI's actual sweep path twice
// against one cache directory: the second run must perform zero graph
// builds (everything restored from disk, the Verilog frontend never runs)
// and print a byte-identical sweep table and fmax report.
func TestSweepWarmCacheZeroBuilds(t *testing.T) {
	dir := t.TempDir()
	spec := designs.All()[0]
	src := designs.Generate(spec)
	periods, err := service.ParseSweep("0.3:0.9:7")
	if err != nil {
		t.Fatal(err)
	}

	render := func(jobs int) (string, engine.Stats) {
		eng := engine.New(jobs)
		eng.SetCacheDir(dir)
		reps, err := service.BuildSweepReps(context.Background(), eng, spec.Name, src)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		service.RenderSweep(&buf, spec.Name, reps, periods)
		service.RenderFmax(&buf, spec.Name, reps)
		return buf.String(), eng.Stats()
	}

	coldOut, coldStats := render(4)
	if coldStats.Builds == 0 || coldStats.DiskWrites != coldStats.Builds {
		t.Fatalf("cold run stats %+v, want every build persisted", coldStats)
	}
	for _, jobs := range []int{1, 8} {
		warmOut, warmStats := render(jobs)
		if warmStats.Builds != 0 {
			t.Fatalf("jobs=%d: warm sweep performed %d graph builds, want 0", jobs, warmStats.Builds)
		}
		if warmStats.DiskHits != coldStats.Builds {
			t.Fatalf("jobs=%d: warm sweep stats %+v, want %d disk hits", jobs, warmStats, coldStats.Builds)
		}
		if warmOut != coldOut {
			t.Fatalf("jobs=%d: warm sweep output differs from cold run:\ncold:\n%s\nwarm:\n%s", jobs, coldOut, warmOut)
		}
	}
}

// TestOptimizeMode drives the CLI's -optimize path: the loop must run on
// every variant, derive its winning deltas through the engine's memory
// tier (no extra graph builds), and render deterministically across runs
// and jobs counts.
func TestOptimizeMode(t *testing.T) {
	spec := designs.All()[0]
	src := designs.Generate(spec)

	render := func(jobs int) (string, engine.Stats) {
		eng := engine.New(jobs)
		reps, err := service.BuildSweepReps(context.Background(), eng, spec.Name, src)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := runOptimize(&buf, spec.Name, reps, 0, 4); err != nil {
			t.Fatal(err)
		}
		return buf.String(), eng.Stats()
	}

	out1, st1 := render(1)
	if st1.Builds != 4 {
		t.Fatalf("optimize run performed %d builds, want 4 (one per variant)", st1.Builds)
	}
	for _, v := range []string{"SOG", "AIG", "AIMG", "XAG"} {
		if !strings.Contains(out1, v) {
			t.Fatalf("output lacks a %s row:\n%s", v, out1)
		}
	}
	out8, _ := render(8)
	if out1 != out8 {
		t.Fatalf("optimize output differs between jobs=1 and jobs=8:\n%s\nvs\n%s", out1, out8)
	}
}
