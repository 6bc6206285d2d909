package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share the op id;
// parent is the index of the enclosing span (-1 for an op's root span).
type span struct {
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"` // root spans: what the op asked for
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps every span and layer counter of a traced run in memory;
// they are written out once the run has ended. It is safe for concurrent
// use: the variant fan-out of one op records spans from several workers.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// begin opens a span and returns its id. A nil tracer records nothing, so
// the same op code serves the untraced and the traced run.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// beginOp opens an op's root span, labelled with what the op asked for.
func (t *tracer) beginOp(op int, label string) int {
	id := t.begin(op, -1, "op")
	t.mu.Lock()
	t.spans[id].Label = label
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// count adds v to a per-run layer counter (nodes built, cones walked...).
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(op, parent int, name string, fn func()) {
	id := t.begin(op, parent, name)
	fn()
	t.end(id)
}

// selfTimes returns, per span name, the summed self time of its spans:
// duration minus the durations of the spans whose parent it is. Attribution
// spans recorded after their parent closed (replays of a layer the parent
// call ran internally) are subtracted the same way, which is what makes a
// parent's self time the part of it no traced layer explains.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// opStats returns, per op id, the duration of the op's root span and the
// wall time covered by the union of its direct children's intervals
// inside it. Attribution spans (replays charged to a layer after the
// layer's call returned) hang below a child and never count as cover.
func (t *tracer) opStats() (dur, covered map[int]time.Duration) {
	dur, covered = map[int]time.Duration{}, map[int]time.Duration{}
	byOp := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent < 0 {
			dur[s.Op] = time.Duration(s.End - s.Start)
			continue
		}
		r := t.spans[s.Parent]
		if r.Parent >= 0 || r.Op != s.Op {
			continue
		}
		lo, hi := max(s.Start, r.Start), min(s.End, r.End)
		if hi > lo {
			byOp[s.Op] = append(byOp[s.Op], [2]int64{lo, hi})
		}
	}
	ops := make([]int, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	for _, op := range ops {
		iv := byOp[op]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var tot int64
		lo, hi := iv[0][0], iv[0][1]
		for _, x := range iv[1:] {
			if x[0] > hi {
				tot += hi - lo
				lo, hi = x[0], x[1]
			} else if x[1] > hi {
				hi = x[1]
			}
		}
		covered[op] = time.Duration(tot + hi - lo)
	}
	return dur, covered
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
