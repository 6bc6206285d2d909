package sta

import (
	"fmt"
	"math"
	"sync"

	"rtltimer/internal/bog"
	"rtltimer/internal/liberty"
)

// endpointCap is the extra load a timing endpoint puts on its driver
// (register D input cap ~ DFF).
const endpointCap = 1.1

// Analyzer packs everything about one (graph, library) pair that does not
// depend on the clock period or on arrival times: per-node output loads,
// output slews and delay increments. Loads and slews are functions of the
// graph structure alone, and because a node's output slew does not depend
// on its inputs' arrival, the slew term of every delay is static too — so
// one Analyze call reduces to a single serial forward max-plus pass over
// each node's fanins plus the endpoint slack loop. Construction costs one
// reference-style pass; every subsequent Analyze allocates only the
// arrival vector and the Result slices.
//
// The analyzer also holds the read-only consumer adjacency its
// incremental sessions start from (NewIncrementalOn): a root CSR, built
// on the first session of a built or restored analyzer, plus the overlay
// of lists an edit chain changed since that root. Analyzers frozen along
// one chain share the root's arrays and differ only in their overlays.
//
// An Analyzer is immutable once anyone else can reach it, and then safe
// for concurrent use; the lazy adjacency build runs once, under a
// sync.Once. The one exception to immutability is an incremental
// session's analyzer, which the session edits in place while it is
// private — until Snapshot seals the session and hands the analyzer out.
type Analyzer struct {
	G   *bog.Graph
	Lib *liberty.PseudoLib

	load   []float64 // static per-node output load
	slew   []float64 // static per-node output slew
	delay  []float64 // per-node arrival increment (sources: absolute arrival)
	fanout []int32

	adjOnce sync.Once
	csr     *consumerCSR                // root adjacency (see adjacency)
	overlay map[bog.NodeID][]bog.NodeID // lists that differ from csr's
}

// NewAnalyzer precomputes the period-independent timing state for g under
// lib. The floating-point accumulation order matches AnalyzeReference
// exactly so that results stay bit-identical.
func NewAnalyzer(g *bog.Graph, lib *liberty.PseudoLib) *Analyzer {
	n := len(g.Nodes)
	a := &Analyzer{
		G: g, Lib: lib,
		load:   make([]float64, n),
		slew:   make([]float64, n),
		delay:  make([]float64, n),
		fanout: g.FanoutCounts(),
	}
	// Loads: consumer input caps (in consumer-id order), endpoint caps,
	// then wire load — the reference accumulation order, so the float
	// accumulation stays bit-identical.
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		cell := &lib.Cells[nd.Op]
		for j := 0; j < nd.NumFanin(); j++ {
			a.load[nd.Fanin[j]] += cell.InputCap
		}
	}
	for _, ep := range g.Endpoints {
		a.load[ep.D] += endpointCap
	}
	for i := range a.load {
		a.load[i] += lib.WireLoad * float64(a.fanout[i])
	}
	// Slews and delay increments. Operator slews depend only on loads, so
	// the worst fanin slew entering each delay is static as well.
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		worstSlew := 0.0
		for j := 0; j < nd.NumFanin(); j++ {
			if s := a.slew[nd.Fanin[j]]; s > worstSlew {
				worstSlew = s
			}
		}
		a.delay[i] = nodeDelay(lib, nd.Op, a.load[i], worstSlew)
		a.slew[i] = nodeSlew(lib, nd.Op, a.load[i])
	}
	return a
}

// nodeSlew and nodeDelay are the pseudo-cell timing model, shared by the
// analyzer's precomputation and the incremental session's recomputes so
// their bit-identity rests on one formula instead of two synchronized
// copies. Sources have no fanins, so their worstSlew is always 0.

func nodeSlew(lib *liberty.PseudoLib, op bog.Op, load float64) float64 {
	if op == bog.Const0 || op == bog.Const1 {
		return 0
	}
	cell := &lib.Cells[op]
	return cell.SlewBase + cell.SlewCoef*load
}

func nodeDelay(lib *liberty.PseudoLib, op bog.Op, load, worstSlew float64) float64 {
	cell := &lib.Cells[op]
	switch op {
	case bog.Const0, bog.Const1:
		return 0
	case bog.Input:
		return lib.InputAT + cell.DriveRes*load
	case bog.RegQ:
		return lib.ClkToQ + cell.DriveRes*load
	default:
		return cell.Intrinsic + cell.DriveRes*load + cell.SlewSens*worstSlew
	}
}

// State exposes the analyzer's period-independent per-node vectors for
// persistence (the engine's on-disk representation cache). The returned
// slices alias the analyzer's immutable state and must be treated as
// read-only.
func (a *Analyzer) State() (load, slew, delay []float64, fanout []int32) {
	return a.load, a.slew, a.delay, a.fanout
}

// NewAnalyzerFromState rebuilds an analyzer from vectors previously
// obtained with State, skipping every precomputation pass. All four
// vectors must cover len(g.Nodes) entries; the analyzer takes ownership of
// the slices. Callers are responsible for pairing the state with the same
// (graph, library) it was computed from — the engine's cache keys entries
// by a digest of both.
func NewAnalyzerFromState(g *bog.Graph, lib *liberty.PseudoLib, load, slew, delay []float64, fanout []int32) (*Analyzer, error) {
	n := len(g.Nodes)
	if len(load) != n || len(slew) != n || len(delay) != n || len(fanout) != n {
		return nil, fmt.Errorf("sta: state vectors cover %d/%d/%d/%d nodes, graph has %d",
			len(load), len(slew), len(delay), len(fanout), n)
	}
	return &Analyzer{G: g, Lib: lib, load: load, slew: slew, delay: delay, fanout: fanout}, nil
}

// Analyze runs pseudo-STA at the given clock period: a serial forward
// pass in topological id order, then the endpoint slack loop.
func (a *Analyzer) Analyze(period float64) *Result {
	return a.At(a.Arrivals(1), period)
}

// Arrivals runs the forward max-plus pass alone and returns the per-node
// arrival vector. Arrival times are period-free — only slack depends on
// the clock — so one Arrivals call can back any number of At
// materializations. The pass is always serial; jobs is ignored.
func (a *Analyzer) Arrivals(jobs int) []float64 {
	arr := make([]float64, len(a.G.Nodes))
	for i := range a.G.Nodes {
		nd := &a.G.Nodes[i]
		worst := 0.0
		for j := 0; j < nd.NumFanin(); j++ {
			if f := arr[nd.Fanin[j]]; f > worst {
				worst = f
			}
		}
		arr[i] = worst + a.delay[i]
	}
	return arr
}

// At materializes the Result for one clock period from a precomputed
// arrival vector (as returned by Arrivals): only the endpoint slack loop
// runs, allocating the two per-endpoint vectors. The per-node vectors of
// the Result alias arr and the analyzer's immutable state — Results are
// shared read-only by contract (the engine already shares them across
// cache users), so no copies are made. Callers that need only WNS and TNS
// should use Summary, which allocates nothing.
func (a *Analyzer) At(arr []float64, period float64) *Result {
	r := &Result{
		ClockPeriod: period,
		Arrival:     arr,
		Slew:        a.slew,
		Load:        a.load,
		Fanout:      a.fanout,
	}
	finishResult(a.G, a.Lib, r, period)
	return r
}

// Summary returns the WNS and TNS of At(arr, period) without allocating:
// it runs the same endpoint slack loop but records no per-endpoint
// vectors, so both numbers are bit-identical to At's.
func (a *Analyzer) Summary(arr []float64, period float64) (wns, tns float64) {
	return slackLoop(a.G, a.Lib, arr, period, nil, nil)
}

// CriticalPeriod returns the clock period at which the worst endpoint's
// slack is exactly zero: its arrival (floored at 0) plus setup. Slack is
// period − arrival − setup, so in exact arithmetic no shorter period has
// WNS >= 0; rounded, Summary's WNS at this period can read one ulp below
// zero.
func (a *Analyzer) CriticalPeriod(arr []float64) float64 {
	worst := 0.0
	for _, ep := range a.G.Endpoints {
		if at := arr[ep.D]; at > worst {
			worst = at
		}
	}
	return worst + a.Lib.Setup
}

// finishResult fills a Result's per-endpoint vectors, WNS and TNS from
// slackLoop. The analyzer and the incremental session share it, so their
// Results are bit-identical for the same arrival vector.
func finishResult(g *bog.Graph, lib *liberty.PseudoLib, r *Result, period float64) {
	r.EndpointAT = make([]float64, len(g.Endpoints))
	r.Slack = make([]float64, len(g.Endpoints))
	r.WNS, r.TNS = slackLoop(g, lib, r.Arrival, period, r.EndpointAT, r.Slack)
}

// slackLoop is the one accumulation of WNS and TNS, in endpoint order.
// When endpointAT and slack are non-nil it also records each endpoint's
// arrival and slack into them. A graph without endpoints has WNS 0.
func slackLoop(g *bog.Graph, lib *liberty.PseudoLib, arr []float64, period float64, endpointAT, slack []float64) (wns, tns float64) {
	if len(g.Endpoints) == 0 {
		return 0, 0
	}
	wns = math.Inf(1)
	for i, ep := range g.Endpoints {
		at := arr[ep.D]
		s := period - at - lib.Setup
		if endpointAT != nil {
			endpointAT[i], slack[i] = at, s
		}
		if s < wns {
			wns = s
		}
		if s < 0 {
			tns += s
		}
	}
	return wns, tns
}
