// Package opt implements the pseudo-STA-guided optimization loop of the
// paper's second application (§3.5.2): instead of paying a full re-timing
// per candidate, it drives a greedy local search through sta.Incremental,
// so every trial edit and every revert costs only the affected downstream
// cone.
//
// The move set is associative reassociation on critical paths: for a node
// n = op(m, c) whose inner operand m = op(a, b) is a same-operator,
// single-fanout node, the three leaves {a, b, c} can be re-parenthesized
// so the latest-arriving leaf enters the tree last — op(op(early, c),
// late) — shaving one gate delay off the late leaf's path. Reassociation
// over an associative, commutative operator preserves the leaf multiset
// and therefore the logic function, so the rewrite is sound for And, Or
// and Xor in every variant that holds them; it is skipped when the inner
// node drives a timing endpoint directly (its local function changes even
// though the tree's does not).
//
// Every candidate is evaluated by applying its two-edit delta to the live
// incremental session and reading WNS/TNS at the target period. A move is
// kept when (WNS, TNS) strictly improves lexicographically, or when both
// are bit-unchanged and the rewritten node's own arrival strictly drops —
// reconvergent parallel paths often mask a real local gain at the
// endpoints, and such don't-harm moves accumulate until a violating path
// finally flips. Rejected candidates are reverted through the delta's
// inverse, which restores the timing state bit-exactly (insert-free
// deltas). Accepted edits accumulate into one replayable bog.Delta, which
// OptimizeRep re-derives through the engine's delta-keyed cache as a
// final integrity check.
package opt

import (
	"fmt"
	"math"
	"sort"

	"rtltimer/internal/bog"
	"rtltimer/internal/engine"
	"rtltimer/internal/sta"
)

// Config bounds the greedy search.
type Config struct {
	// Period is the clock period (ns) the search optimizes for. <= 0
	// selects DefaultPeriod's 5%-overconstrained target in OptimizeRep
	// (Optimize itself requires an explicit positive period).
	Period float64
	// MaxPasses bounds full passes over the critical endpoints (0 = 4;
	// Optimize refuses a negative count).
	MaxPasses int
}

// maxEndpoints bounds how many of the worst endpoints each pass examines.
const maxEndpoints = 16

func (c *Config) fill() {
	if c.MaxPasses == 0 {
		c.MaxPasses = 4
	}
}

// Report summarizes one optimization run.
type Report struct {
	Variant  bog.Variant
	Period   float64
	StartWNS float64
	StartTNS float64
	FinalWNS float64
	FinalTNS float64
	Tried    int       // candidate rewrites evaluated
	Applied  int       // rewrites kept
	Delta    bog.Delta // accepted edits in application order, replayable on the base graph
	Retimed  int64     // per-node arrival recomputes the search consumed
	Nodes    int       // graph size, for cone-vs-design comparisons
}

// Optimize runs the greedy reassociation search on a live incremental
// session (which it mutates: the session ends holding the optimized
// graph). The search is deterministic: candidate order follows endpoint
// slack and path order, and acceptance compares (WNS, TNS)
// lexicographically.
func Optimize(inc *sta.Incremental, cfg Config) (*Report, error) {
	cfg.fill()
	if cfg.Period <= 0 || math.IsNaN(cfg.Period) || math.IsInf(cfg.Period, 0) {
		return nil, fmt.Errorf("opt: period must be a finite positive clock period, got %v", cfg.Period)
	}
	if cfg.MaxPasses < 0 {
		return nil, fmt.Errorf("opt: pass count must not be negative, got %d", cfg.MaxPasses)
	}
	g := inc.G
	start := inc.At(cfg.Period)
	rep := &Report{
		Variant: g.Variant, Period: cfg.Period,
		StartWNS: start.WNS, StartTNS: start.TNS,
		FinalWNS: start.WNS, FinalTNS: start.TNS,
		Nodes: g.NumNodes(),
	}
	retimed0 := inc.Recomputed()
	// The current (WNS, TNS) is threaded through the whole search: a
	// rejected trial reverts the timing state bit-exactly and an accepted
	// one hands its own measurement forward, so the endpoint slack loop
	// runs once per trial, not twice.
	curWNS, curTNS := start.WNS, start.TNS
	for pass := 0; pass < cfg.MaxPasses; pass++ {
		improved := false
		r := inc.At(cfg.Period)
		order := make([]int, len(g.Endpoints))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return r.Slack[order[a]] < r.Slack[order[b]] })
		if len(order) > maxEndpoints {
			order = order[:maxEndpoints]
		}
		for _, ep := range order {
			// r.Arrival aliases the live session, so the slowest path is
			// current even after earlier accepted edits this pass.
			path := r.SlowestPath(g, ep)
			for k := len(path) - 1; k >= 0; k-- {
				ok, wns, tns := tryRebalance(inc, rep, path[k], cfg.Period, curWNS, curTNS)
				curWNS, curTNS = wns, tns
				if ok {
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	rep.FinalWNS, rep.FinalTNS = curWNS, curTNS
	rep.Retimed = inc.Recomputed() - retimed0
	return rep, nil
}

// tryRebalance evaluates the reassociation rewrite rooted at n against
// the current (curWNS, curTNS), keeping it when timing improves and
// reverting it otherwise; it returns the (WNS, TNS) the session holds
// afterwards.
func tryRebalance(inc *sta.Incremental, rep *Report, n bog.NodeID, period, curWNS, curTNS float64) (bool, float64, float64) {
	g := inc.G
	nd := &g.Nodes[n]
	switch nd.Op {
	case bog.And, bog.Or, bog.Xor:
	default:
		return false, curWNS, curTNS
	}
	arr := inc.Arrivals()
	for slot := 0; slot < 2; slot++ {
		m, c := nd.Fanin[slot], nd.Fanin[1-slot]
		if g.Nodes[m].Op != nd.Op || c >= m {
			continue
		}
		// The inner node's local function changes, so it must be private
		// to this tree: exactly one fanout edge (to n) and no endpoint.
		if inc.FanoutCount(m) != 1 || inc.EndpointCount(m) != 0 {
			continue
		}
		a, b := g.Nodes[m].Fanin[0], g.Nodes[m].Fanin[1]
		lateSlot := 0
		if arr[b] > arr[a] {
			lateSlot = 1
		}
		late := g.Nodes[m].Fanin[lateSlot]
		if arr[late] <= arr[c] {
			continue // already balanced: the direct operand is the latest leaf
		}
		delta := bog.Delta{
			bog.SetFaninEdit(m, lateSlot, c),  // inner: the two earliest leaves
			bog.SetFaninEdit(n, 1-slot, late), // outer: the latest leaf
		}
		arrBefore := arr[n]
		undo, err := inc.Apply(delta)
		if err != nil {
			continue
		}
		rep.Tried++
		after := inc.At(period)
		strictly := after.WNS > curWNS || (after.WNS == curWNS && after.TNS > curTNS)
		// Don't-harm: global timing bit-unchanged but the rewritten node
		// itself got faster (a reconvergent sibling path still dominates
		// its endpoints — keep the slack anyway).
		neutral := after.WNS == curWNS && after.TNS == curTNS &&
			inc.Arrivals()[n] < arrBefore
		if strictly || neutral {
			rep.Applied++
			rep.Delta = append(rep.Delta, delta...)
			return true, after.WNS, after.TNS
		}
		if _, err := inc.Apply(undo); err != nil {
			// Unreachable: the inverse of an accepted delta is valid.
			panic(fmt.Sprintf("opt: revert failed: %v", err))
		}
	}
	return false, curWNS, curTNS
}

// DefaultPeriod returns the search's 5%-overconstrained target clock for
// a cached representation: 95% of the critical period (worst endpoint
// arrival plus setup, sta.Analyzer.CriticalPeriod), so the optimizer
// starts with violations to fix. Deterministic and O(endpoints).
func DefaultPeriod(rr *engine.RepResult) float64 {
	return 0.95 * rr.An.CriticalPeriod(rr.Arrival)
}

// OptimizeRep runs the greedy search against an engine-cached base
// representation without touching it: the base graph is cloned into a
// fresh incremental session, the search runs there, and the accepted
// edits are then re-derived through the engine's delta-keyed cache
// (RepResult.Edit) — concurrent or repeated optimizations of the same
// base share the derived entries, and warm sessions that restored the
// base from disk rebase the same edits. The derived result must agree
// with the search session bit-for-bit; any divergence is reported as an
// error rather than silently returned.
func OptimizeRep(rr *engine.RepResult, cfg Config) (*Report, *engine.RepResult, error) {
	if cfg.Period <= 0 {
		cfg.Period = DefaultPeriod(rr)
	}
	inc, err := sta.NewIncrementalOn(rr.An, rr.Graph.Clone(), rr.Arrival)
	if err != nil {
		return nil, nil, err
	}
	rep, err := Optimize(inc, cfg)
	if err != nil {
		return nil, nil, err
	}
	drr, err := rr.Edit(rep.Delta)
	if err != nil {
		return nil, nil, err
	}
	got, want := drr.Arrival, inc.Arrivals()
	if len(got) != len(want) {
		return nil, nil, fmt.Errorf("opt: delta replay produced %d arrivals, session has %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return nil, nil, fmt.Errorf("opt: delta replay diverged from the search session at node %d (%v != %v)", i, got[i], want[i])
		}
	}
	return rep, drr, nil
}
