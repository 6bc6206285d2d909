// Command benchjson converts `go test -bench` output into the
// BENCH_<pr>.json trajectory format: a JSON object mapping benchmark name
// (with the -N GOMAXPROCS suffix stripped) to its ns/op and allocs/op, so
// per-PR performance claims are diffable in-repo instead of living only in
// CI logs.
//
// Usage:
//
//	go test -run=NONE -bench . -count 5 -benchmem . | benchjson > BENCH_6.json
//
// Lines that are not benchmark result lines are ignored, so the raw
// `go test` stream can be piped in unfiltered. Custom b.ReportMetric
// units (replication_x, max_shard_nodes, ...) are carried through as
// extra keys when present. A benchmark repeated with -count N records the
// median of each value over its N lines (the mean of the middle two when
// N is even); a single line is recorded as it is.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// result holds the per-benchmark numbers we track across PRs. Extra
// holds custom ReportMetric units keyed by unit name.
type result struct {
	NsOp     float64            `json:"ns_op"`
	AllocsOp float64            `json:"allocs_op"`
	Extra    map[string]float64 `json:"extra,omitempty"`
}

// parseLine decodes one `go test -bench` result line, e.g.
//
//	BenchmarkShardedSTA-8  1  721638 ns/op  1.014 replication_x  105 allocs/op
//
// returning ok=false for any line that is not a benchmark result.
func parseLine(line string) (name string, r result, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", result{}, false
	}
	name = f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the GOMAXPROCS suffix
		}
	}
	// f[1] is the iteration count: always a plain positive integer in
	// `go test -bench` output. Rejecting anything else keeps prose lines
	// that happen to start with "Benchmark..." out of the table.
	if iters, err := strconv.Atoi(f[1]); err != nil || iters <= 0 {
		return "", result{}, false
	}
	// The rest are value/unit pairs; custom b.ReportMetric units such as
	// replication_x ride in the same stream as ns/op and allocs/op.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", result{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.NsOp = v
		case "allocs/op":
			r.AllocsOp = v
		case "B/op", "MB/s":
			// tracked in CI logs but not part of the trajectory
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = v
		}
	}
	return name, r, true
}

// summarize reduces one benchmark's result lines to the median of each
// value. An extra unit missing from some lines takes the median of the
// lines that report it.
func summarize(rs []result) result {
	var ns, allocs []float64
	extra := make(map[string][]float64)
	for _, r := range rs {
		ns = append(ns, r.NsOp)
		allocs = append(allocs, r.AllocsOp)
		for unit, v := range r.Extra {
			extra[unit] = append(extra[unit], v)
		}
	}
	out := result{NsOp: median(ns), AllocsOp: median(allocs)}
	if len(extra) > 0 {
		out.Extra = make(map[string]float64, len(extra))
		for unit, vs := range extra {
			out.Extra[unit] = median(vs)
		}
	}
	return out
}

// median returns the middle value of xs, or the mean of the middle two
// when len(xs) is even. It sorts xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// convert reads a `go test -bench` stream and renders its trajectory
// JSON, one key per benchmark in sorted order.
func convert(in io.Reader) (string, error) {
	samples := make(map[string][]result)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if name, r, ok := parseLine(sc.Text()); ok {
			samples[name] = append(samples[name], r)
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	if len(samples) == 0 {
		return "", errors.New("no benchmark result lines on stdin")
	}
	// Deterministic key order so consecutive runs diff cleanly.
	names := make([]string, 0, len(samples))
	for n := range samples {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("{\n")
	for i, n := range names {
		enc, err := json.Marshal(summarize(samples[n]))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  %q: %s", n, enc)
		if i < len(names)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return b.String(), nil
}

func main() {
	out, err := convert(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	os.Stdout.WriteString(out)
}
