package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the benchmark must honour.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWorkloadsReportEveryMetric runs each workload on two small designs
// with a few ops, untraced and traced, and checks that the result line
// carries every metric BENCHMARK.json names with its unit, and that no op
// failed.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	c := loadContract(t)
	for _, w := range c.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", w.Name, "-seed", "1", "-seconds", "1", "-trace", trace,
					"-out", t.TempDir(), "-designs", "b20,conmax"}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d:\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				want := c.EndToEnd
				if trace == "1" {
					want = c.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			})
		}
	}
}

// opSequence returns a workload's generated op sequence.
func opSequence(w workload) any {
	switch w := w.(type) {
	case *cliWorkload:
		return w.ops
	case *warmWorkload:
		return w.ops
	case *editWorkload:
		return w.sessions
	}
	return nil
}

// TestSeedFixesTheOpSequence checks that one seed always generates the
// same op sequence and that another seed generates a different one.
func TestSeedFixesTheOpSequence(t *testing.T) {
	suite, err := loadSuite("")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cold-build", "disk-warm", "warm-query", "edit-session"} {
		gen := func(seed int64) any {
			w := newWorkload(name)
			w.prepare(seed, 10, t.TempDir(), suite)
			return opSequence(w)
		}
		if a, b := gen(1), gen(1); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 generated two different sequences", name)
		}
		if a, b := gen(1), gen(2); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 generated the same sequence", name)
		}
	}
}
