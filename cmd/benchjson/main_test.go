package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseLine is table-driven over the line shapes the BENCH trajectory
// has to survive: plain -benchmem lines, custom b.ReportMetric units
// (replication_x, graph_nodes, ...), scientific-notation values,
// GOMAXPROCS-suffix stripping, and the noise go test interleaves with
// results. Guard rail for adding more custom metrics.
func TestParseLine(t *testing.T) {
	tests := []struct {
		desc  string
		line  string
		ok    bool
		name  string
		ns    float64
		alloc float64
		extra map[string]float64
	}{
		{
			desc:  "plain benchmem line",
			line:  "BenchmarkIncrementalSTA-8   \t 500\t  21042 ns/op\t 1024 B/op\t 12 allocs/op",
			ok:    true,
			name:  "BenchmarkIncrementalSTA",
			ns:    21042,
			alloc: 12,
		},
		{
			desc:  "replication_x custom metric between ns/op and memstats",
			line:  "BenchmarkShardedSTA-8  \t 1\t  721638 ns/op\t 21166 graph_nodes\t 1.014 replication_x\t 1215248 B/op\t 105 allocs/op",
			ok:    true,
			name:  "BenchmarkShardedSTA",
			ns:    721638,
			alloc: 105,
			extra: map[string]float64{"replication_x": 1.014, "graph_nodes": 21166},
		},
		{
			desc:  "custom metric only, no -benchmem",
			line:  "BenchmarkShardedSTAGreedy-8 1 950000 ns/op 2.95 replication_x",
			ok:    true,
			name:  "BenchmarkShardedSTAGreedy",
			ns:    950000,
			extra: map[string]float64{"replication_x": 2.95},
		},
		{
			desc: "scientific-notation value",
			line: "BenchmarkEngineColdBuild-8 1 1.21e+09 ns/op 3 allocs/op",
			ok:   true, name: "BenchmarkEngineColdBuild", ns: 1.21e+09, alloc: 3,
		},
		{
			desc: "no GOMAXPROCS suffix (single-core runner)",
			line: "BenchmarkColdBuild 1 100 ns/op 0 allocs/op",
			ok:   true, name: "BenchmarkColdBuild", ns: 100,
		},
		{
			desc: "non-numeric dash suffix survives",
			line: "BenchmarkFoo-bar 1 100 ns/op 0 allocs/op",
			ok:   true, name: "BenchmarkFoo-bar", ns: 100,
		},
		{
			desc: "trailing value without unit is dropped, pairs kept",
			line: "BenchmarkOdd-8 1 42 ns/op 7",
			ok:   true, name: "BenchmarkOdd", ns: 42,
		},
		{desc: "goos header", line: "goos: linux", ok: false},
		{desc: "pkg header", line: "pkg: rtltimer", ok: false},
		{desc: "PASS footer", line: "PASS", ok: false},
		{desc: "ok footer", line: "ok  \trtltimer\t0.064s", ok: false},
		{desc: "bad value", line: "BenchmarkBroken-8 1 notanumber ns/op", ok: false},
		{desc: "non-integer iteration count", line: "Benchmark results were 3 ns/op overall today", ok: false},
		{desc: "empty", line: "", ok: false},
		{desc: "name-only line (verbose logging split)", line: "BenchmarkShardedSTA", ok: false},
	}
	for _, tc := range tests {
		name, r, ok := parseLine(tc.line)
		if ok != tc.ok {
			t.Errorf("%s: ok=%v, want %v (line %q)", tc.desc, ok, tc.ok, tc.line)
			continue
		}
		if !ok {
			continue
		}
		if name != tc.name {
			t.Errorf("%s: name=%q, want %q", tc.desc, name, tc.name)
		}
		if r.NsOp != tc.ns || r.AllocsOp != tc.alloc {
			t.Errorf("%s: ns/op=%v allocs/op=%v, want %v/%v", tc.desc, r.NsOp, r.AllocsOp, tc.ns, tc.alloc)
		}
		if !reflect.DeepEqual(r.Extra, tc.extra) && !(len(r.Extra) == 0 && len(tc.extra) == 0) {
			t.Errorf("%s: extra=%v, want %v", tc.desc, r.Extra, tc.extra)
		}
		if _, leaked := r.Extra["B/op"]; leaked {
			t.Errorf("%s: B/op leaked into extra metrics", tc.desc)
		}
	}
}

// TestConvertRecordsMedians covers -count N streams: each value is the
// median over a benchmark's lines, whatever order they arrive in, and the
// mean of the middle two for an even count. A single line passes through
// as it is.
func TestConvertRecordsMedians(t *testing.T) {
	tests := []struct {
		desc string
		in   string
		want string
	}{
		{
			desc: "one sample per name",
			in: `goos: linux
BenchmarkB-2 1 2.5e+06 ns/op 1.014 replication_x 1024 B/op 7 allocs/op
BenchmarkA-2 10 1500 ns/op 3 allocs/op
PASS
`,
			want: `{
  "BenchmarkA": {"ns_op":1500,"allocs_op":3},
  "BenchmarkB": {"ns_op":2500000,"allocs_op":7,"extra":{"replication_x":1.014}}
}
`,
		},
		{
			desc: "three repeats, shuffled and interleaved",
			in: `BenchmarkA-2 10 300 ns/op 9 allocs/op
BenchmarkB-2 1 40 ns/op 2.5 replication_x 1 allocs/op
BenchmarkA-2 10 100 ns/op 7 allocs/op
BenchmarkB-2 1 20 ns/op 1.5 replication_x 1 allocs/op
BenchmarkA-2 10 200 ns/op 8 allocs/op
BenchmarkB-2 1 30 ns/op 3.5 replication_x 1 allocs/op
`,
			want: `{
  "BenchmarkA": {"ns_op":200,"allocs_op":8},
  "BenchmarkB": {"ns_op":30,"allocs_op":1,"extra":{"replication_x":2.5}}
}
`,
		},
		{
			desc: "two repeats take the mean of the middle two",
			in: `BenchmarkA-2 10 300 ns/op 9 allocs/op 4 graph_nodes
BenchmarkA-2 10 100 ns/op 6 allocs/op 4 graph_nodes
`,
			want: `{
  "BenchmarkA": {"ns_op":200,"allocs_op":7.5,"extra":{"graph_nodes":4}}
}
`,
		},
	}
	for _, tc := range tests {
		got, err := convert(strings.NewReader(tc.in))
		if err != nil {
			t.Fatalf("%s: %v", tc.desc, err)
		}
		if got != tc.want {
			t.Errorf("%s: got\n%s\nwant\n%s", tc.desc, got, tc.want)
		}
	}
	if _, err := convert(strings.NewReader("PASS\n")); err == nil {
		t.Error("a stream without result lines must be an error")
	}
}
