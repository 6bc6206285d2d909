// Package sta implements static timing analysis over the Boolean operator
// graph (pseudo-STA, paper §3.2). The BOG is treated as a pseudo netlist
// whose cells come from liberty.PseudoLib; a single topological pass
// propagates arrival time, slew and load, yielding per-endpoint arrival
// times and slacks plus design WNS/TNS. The package also provides the
// register-oriented path machinery: slowest-path extraction, random path
// sampling within an endpoint's input cone, and input-cone statistics.
package sta

import (
	"rtltimer/internal/bog"
	"rtltimer/internal/liberty"
)

// RandSource is the randomness consumers inject into path sampling.
// *math/rand.Rand satisfies it. sta itself deliberately does not import
// math/rand: this package is under the determinism contract (results are
// pure functions of the graph and library), so the caller owns both the
// generator and its seed, and the rtllint nondeterm analyzer keeps
// entropy sources out of this tree. Callers must seed with a constant
// for reproducible sampling (all in-repo callers do).
type RandSource interface {
	// Float64 returns a pseudo-random number in [0, 1).
	Float64() float64
}

// Result holds the pseudo-STA outcome for one graph. Results are shared
// read-only: the per-node vectors of Analyzer-produced Results alias the
// analyzer's immutable precomputed state and the arrival vector passed to
// At, which callers such as the engine share across every period they
// materialize, so consumers must not mutate them.
type Result struct {
	ClockPeriod float64
	Arrival     []float64 // per node: worst arrival at node output
	Slew        []float64 // per node: output slew
	Load        []float64 // per node: output load
	Fanout      []int32   // per node: fanout count
	EndpointAT  []float64 // per endpoint (aligned with g.Endpoints)
	Slack       []float64 // per endpoint
	WNS         float64
	TNS         float64
}

// Analyze runs pseudo-STA on g with the given library and clock period.
// It is a one-shot convenience over Analyzer; callers analyzing the same
// graph repeatedly (different periods, benchmarks, the evaluation engine)
// should build one Analyzer and reuse it, amortizing the period-
// independent precomputation.
func Analyze(g *bog.Graph, lib *liberty.PseudoLib, period float64) *Result {
	return NewAnalyzer(g, lib).Analyze(period)
}

// Path is a node sequence from a timing source to an endpoint D pin,
// ordered source-first.
type Path []bog.NodeID

// SlowestPath back-traces the critical path ending at endpoint ep: at each
// node the fanin with the largest arrival time is followed.
func (r *Result) SlowestPath(g *bog.Graph, ep int) Path {
	var rev []bog.NodeID
	cur := g.Endpoints[ep].D
	for {
		rev = append(rev, cur)
		nd := &g.Nodes[cur]
		if nd.NumFanin() == 0 {
			break
		}
		best := nd.Fanin[0]
		for j := 1; j < nd.NumFanin(); j++ {
			if r.Arrival[nd.Fanin[j]] > r.Arrival[best] {
				best = nd.Fanin[j]
			}
		}
		cur = best
	}
	// Reverse to source-first order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// RandomPath samples one path ending at the endpoint by walking backward
// with arrival-weighted random fanin choices (slower fanins are more likely,
// so samples concentrate on timing-relevant subpaths without duplicating
// the critical path).
func (r *Result) RandomPath(g *bog.Graph, ep int, rng RandSource) Path {
	var rev []bog.NodeID
	cur := g.Endpoints[ep].D
	for {
		rev = append(rev, cur)
		nd := &g.Nodes[cur]
		k := nd.NumFanin()
		if k == 0 {
			break
		}
		// Weight fanins by (arrival + epsilon).
		total := 0.0
		for j := 0; j < k; j++ {
			total += r.Arrival[nd.Fanin[j]] + 1e-4
		}
		pick := rng.Float64() * total
		next := nd.Fanin[k-1]
		for j := 0; j < k; j++ {
			pick -= r.Arrival[nd.Fanin[j]] + 1e-4
			if pick <= 0 {
				next = nd.Fanin[j]
				break
			}
		}
		cur = next
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// SamplePaths draws the slowest path plus k random paths for an endpoint
// (paper Eq. 3: the prediction target is the max over these paths).
// Duplicate random paths are removed.
func (r *Result) SamplePaths(g *bog.Graph, ep, k int, rng RandSource) []Path {
	paths := []Path{r.SlowestPath(g, ep)}
	type key struct {
		src bog.NodeID
		ln  int
	}
	dedup := map[key]bool{{src: paths[0][0], ln: len(paths[0])}: true}
	for i := 0; i < k; i++ {
		p := r.RandomPath(g, ep, rng)
		kk := key{src: p[0], ln: len(p)}
		if dedup[kk] {
			continue
		}
		dedup[kk] = true
		paths = append(paths, p)
	}
	return paths
}

// ConeInfo summarizes an endpoint's input cone (paper Table 2 cone-level
// features).
type ConeInfo struct {
	Nodes       int // combinational nodes in the cone
	DrivingRegs int // distinct register bits driving the cone
	Inputs      int // distinct primary-input bits driving the cone
}

// ConeWalker walks the input cones of one graph's endpoints. Its visited
// set is a dense stamp array that every walk reuses: a walk bumps the
// epoch instead of clearing the array, so it costs only the nodes of its
// cone, and the stack is reused too. The array is sized to the graph when
// the walker is made; bog edits keep every cone inside it, because an
// inserted node can never feed an existing node or endpoint. A ConeWalker
// is not safe for concurrent use.
type ConeWalker struct {
	g     *bog.Graph
	stamp []uint32 // stamp[n] == epoch: n was pushed during the current walk
	epoch uint32
	stack []bog.NodeID
}

// NewConeWalker returns a walker over g's endpoint cones.
func NewConeWalker(g *bog.Graph) *ConeWalker {
	return &ConeWalker{g: g, stamp: make([]uint32, len(g.Nodes))}
}

// InputCone walks backward from endpoint ep's D pin to all timing sources.
func (w *ConeWalker) InputCone(ep int) ConeInfo {
	w.epoch++
	if w.epoch == 0 {
		// The epoch wrapped: stamps from 2³² walks ago would read as
		// visited, so start over from a clean array.
		clear(w.stamp)
		w.epoch = 1
	}
	var info ConeInfo
	d := w.g.Endpoints[ep].D
	w.stamp[d] = w.epoch
	stack := append(w.stack[:0], d)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &w.g.Nodes[cur]
		switch nd.Op {
		case bog.RegQ:
			info.DrivingRegs++
			continue
		case bog.Input:
			info.Inputs++
			continue
		case bog.Const0, bog.Const1:
			continue
		}
		info.Nodes++
		for j := 0; j < nd.NumFanin(); j++ {
			if f := nd.Fanin[j]; w.stamp[f] != w.epoch {
				w.stamp[f] = w.epoch
				stack = append(stack, f)
			}
		}
	}
	w.stack = stack
	return info
}

// SampleCount returns the number of random paths to draw for an endpoint:
// proportional to the number of driving registers (paper §3.2), clamped to
// [min, max].
func SampleCount(drivingRegs, min, max int) int {
	k := drivingRegs / 2
	if k < min {
		k = min
	}
	if k > max {
		k = max
	}
	return k
}
