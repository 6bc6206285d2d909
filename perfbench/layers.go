package main

import (
	"time"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
	value      func(l *layerInput) float64
}

// layerInput is what the per-layer metrics are computed from: the traced
// replay's spans and counters, and the untraced phase of the same run.
type layerInput struct {
	self    map[string]time.Duration
	dur     map[string]time.Duration
	counts  map[string]float64
	ops     float64
	untrace *phase
	opDur   []float64 // traced root span per op, ms
	covered []float64 // root time covered by the op's direct layer spans, ms
}

// perOpMS is a layer's self time per op.
func (l *layerInput) perOpMS(names ...string) float64 {
	var d time.Duration
	for _, n := range names {
		d += l.self[n]
	}
	return ms(d) / l.ops
}

func (l *layerInput) perOp(count string) float64 { return l.counts[count] / l.ops }

// perUntracedOp is an engine counter of the untraced phase per op.
func (l *layerInput) perUntracedOp(v int64) float64 {
	return float64(v) / float64(l.untrace.attempted)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func selfMS(name string) func(*layerInput) float64 {
	return func(l *layerInput) float64 { return l.perOpMS(name) }
}

func countPerOp(name string) func(*layerInput) float64 {
	return func(l *layerInput) float64 { return l.perOp(name) }
}

// layers lists every per-layer metric; each workload's traced run prints
// all of them (a layer a workload does not reach reads 0). README.md maps
// each to the end-to-end metric and workload it should move.
var layers = []layerMetric{
	{"verilog.parse_ms", "ms", selfMS("verilog.parse")},
	{"elab.elaborate_ms", "ms", selfMS("elab.elaborate")},
	{"bog.build_ms", "ms", selfMS("bog.build")},
	{"bog.nodes", "count/op", countPerOp("bog.nodes")},
	{"bog.unmarshal_ms", "ms", selfMS("bog.unmarshal")},
	{"bog.clone_ms", "ms", selfMS("bog.clone")},
	{"sta.analyzer_ms", "ms", selfMS("sta.analyzer")},
	{"sta.forward_ms", "ms", selfMS("sta.forward")},
	{"sta.restore_ms", "ms", selfMS("sta.restore")},
	{"sta.at_ms", "ms", selfMS("sta.at")},
	{"sta.at_calls", "count/op", countPerOp("sta.at_calls")},
	{"sta.incremental_ms", "ms", selfMS("sta.incremental")},
	{"sta.nodes_retimed", "count/op", countPerOp("sta.nodes_retimed")},
	{"features.extract_ms", "ms", selfMS("features.extract")},
	{"features.cone_nodes", "count/op", countPerOp("features.cone_nodes")},
	{"features.restore_ms", "ms", selfMS("features.restore")},
	{"part.partition_ms", "ms", selfMS("part.partition")},
	{"part.shards", "count/rep", func(l *layerInput) float64 {
		if l.counts["part.reps"] == 0 {
			return 0
		}
		return l.counts["part.shards"] / l.counts["part.reps"]
	}},
	{"engine.evalrep_ms", "ms", func(l *layerInput) float64 { return ms(l.dur["engine.evalrep"]) / l.ops }},
	{"engine.store_read_ms", "ms", selfMS("engine.store_read")},
	{"engine.store_read_mb", "MB/op", countPerOp("engine.store_read_mb")},
	{"engine.decode_self_ms", "ms", selfMS("engine.evalrep")},
	{"engine.store_write_ms", "ms/setup", func(l *layerInput) float64 { return ms(l.self["engine.store_write"]) }},
	{"engine.builds", "count/op", func(l *layerInput) float64 { return l.perUntracedOp(l.untrace.stats.Builds) }},
	{"engine.hits", "count/op", func(l *layerInput) float64 { return l.perUntracedOp(l.untrace.stats.Hits) }},
	{"engine.disk_hits", "count/op", func(l *layerInput) float64 { return l.perUntracedOp(l.untrace.stats.DiskHits) }},
	{"engine.edits", "count/op", func(l *layerInput) float64 { return l.perUntracedOp(l.untrace.stats.Edits) }},
	{"engine.shard_edits", "count/op", func(l *layerInput) float64 { return l.perUntracedOp(l.untrace.stats.ShardEdits) }},
	{"engine.evictions", "count/op", func(l *layerInput) float64 { return l.perUntracedOp(l.untrace.stats.Evictions) }},
	{"engine.disk_errors", "count/op", func(l *layerInput) float64 { return l.perUntracedOp(l.untrace.stats.DiskErrors) }},
	{"engine.quarantined", "count/op", func(l *layerInput) float64 { return l.perUntracedOp(l.untrace.stats.Quarantined) }},
	{"engine.hit_ratio", "ratio", func(l *layerInput) float64 {
		s := l.untrace.stats
		return ratio(s.Hits, s.Hits+s.DiskHits+s.Builds)
	}},
	{"engine.disk_hit_ratio", "ratio", func(l *layerInput) float64 {
		s := l.untrace.stats
		return ratio(s.DiskHits, s.DiskHits+s.Builds)
	}},
	{"engine.shard_edit_ratio", "ratio", func(l *layerInput) float64 {
		return ratio(l.untrace.stats.ShardEdits, l.untrace.stats.Edits)
	}},
	{"engine.derive_ratio", "ratio", func(l *layerInput) float64 {
		return ratio(l.untrace.stats.Edits, l.untrace.editRequests)
	}},
	{"engine.mem_used_mb", "MB", func(l *layerInput) float64 { return quantile(l.untrace.memUsed, 0.9) }},
	{"runtime.heap_live_mb", "MB", func(l *layerInput) float64 { return quantile(l.untrace.heap, 0.9) }},
	{"service.resolve_ms", "ms", selfMS("service.resolve")},
	{"service.eval_self_ms", "ms", func(l *layerInput) float64 { return l.perOpMS("service.eval_self", "service.call") }},
	{"service.render_ms", "ms", selfMS("service.render")},
	{"service.fmax_search_ms", "ms", selfMS("service.fmax_search")},
	{"service.shed", "count", func(l *layerInput) float64 { return float64(l.untrace.shed) }},
	{"http.overhead_ms", "ms", selfMS("http.request")},
	{"runtime.gc_cpu_pct", "%", func(l *layerInput) float64 {
		u := l.untrace.use
		if u.totalCPU <= 0 {
			return 0
		}
		return 100 * u.gcCPU / u.totalCPU
	}},
	{"runtime.gc_cycles", "count/op", func(l *layerInput) float64 { return l.perUntracedOp(int64(l.untrace.use.gcCycles)) }},
	{"trace.unexplained_pct", "%", func(l *layerInput) float64 {
		m := mean(l.untrace.lats)
		if m == 0 {
			return 0
		}
		return 100 * (m - mean(l.covered)) / m
	}},
	{"trace.overhead_pct", "%", func(l *layerInput) float64 {
		u := quantile(l.untrace.lats, 0.5)
		if u == 0 {
			return 0
		}
		return 100 * (quantile(l.opDur, 0.5) - u) / u
	}},
}

// layerMetrics computes every per-layer metric of a traced run.
func layerMetrics(tr *tracer, untraced *phase, ops int) map[string]metric {
	in := &layerInput{
		self:    tr.selfTimes(),
		dur:     map[string]time.Duration{},
		counts:  tr.counts,
		ops:     float64(ops),
		untrace: untraced,
	}
	for _, s := range tr.spans {
		in.dur[s.Name] += time.Duration(s.End - s.Start)
	}
	dur, covered := tr.opStats()
	for op := range ops {
		in.opDur = append(in.opDur, ms(dur[op]))
		in.covered = append(in.covered, ms(covered[op]))
	}
	out := map[string]metric{}
	for _, m := range layers {
		out[m.name] = metric{Value: m.value(in), Unit: m.unit}
	}
	return out
}
