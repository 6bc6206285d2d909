package synth

import (
	"fmt"
	"math"
	"sort"

	"rtltimer/internal/bog"
	"rtltimer/internal/elab"
	"rtltimer/internal/liberty"
	"rtltimer/internal/netlist"
)

// Options configures one synthesis run.
type Options struct {
	// Period is the target clock period in ns. Zero selects 0.5 ns.
	Period float64
	// Seed drives mapping noise and placement spread; fixed per design so
	// labels are reproducible.
	Seed int64
	// Groups optionally assigns endpoint refs ("sig[3]") to path groups,
	// most critical group first, enabling group_path-style weighted
	// optimization effort. Nil = single default group.
	Groups [][]string
	// GroupWeights scales per-group sizing effort; len must match Groups.
	GroupWeights []float64
	// RetimeRefs lists endpoint refs whose registers should be retimed
	// backward (the paper applies this to the top 5% critical endpoints).
	RetimeRefs []string
	// SizingRounds is the total timing-driven sizing budget. Zero selects
	// the default 14.
	SizingRounds int
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Period == 0 {
		out.Period = 0.5
	}
	if out.SizingRounds == 0 {
		out.SizingRounds = 14
	}
	return out
}

// Result bundles the outputs of a synthesis run.
type Result struct {
	Netlist *netlist.Netlist
	// Timing is the post-synthesis STA (the ground-truth labels RTL-Timer
	// learns; the paper uses PrimeTime on the DC netlist here).
	Timing *netlist.Timing
	Report netlist.Report
	// Placed is the timing after pseudo-placement (wire spread applied).
	Placed *netlist.Timing
	// PostOpt is the timing after post-placement optimization.
	PostOpt *netlist.Timing
}

// Labels returns post-synthesis endpoint arrival times keyed by endpoint
// ref ("sig[bit]").
func (r *Result) Labels() map[string]float64 {
	out := make(map[string]float64, len(r.Netlist.Endpoints))
	for i := range r.Netlist.Endpoints {
		ep := &r.Netlist.Endpoints[i]
		out[ep.Ref()] = r.Timing.EndpointAT[i]
	}
	return out
}

// Run synthesizes the design: AIG construction, balancing, technology
// mapping (with optional retiming), timing-driven sizing (with optional
// path groups), then pseudo-placement and post-placement optimization.
// A negative, NaN or infinite period is an error.
func Run(d *elab.Design, opts Options) (*Result, error) {
	if opts.Period < 0 || math.IsNaN(opts.Period) || math.IsInf(opts.Period, 0) {
		return nil, fmt.Errorf("synth: period must be a finite number of ns >= 0 (0 = 0.5 ns), got %v", opts.Period)
	}
	o := opts.withDefaults()
	aig, err := bog.Build(d, bog.AIG)
	if err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}
	balanced := balance(aig, o.Seed)
	if err := balanced.Check(); err != nil {
		return nil, fmt.Errorf("synth: balance: %w", err)
	}
	// Per-design mapping style variation: different designs see different
	// technology-mapping aggressiveness, as across real tool versions and
	// option sets.
	mapNoise := 0.06 + 0.30*hash01(uint64(o.Seed), 99)
	lib := liberty.NanGate45()
	nl := techmap(balanced, lib, o.Seed, mapNoise, nil)
	if err := nl.Check(); err != nil {
		return nil, fmt.Errorf("synth: techmap: %w", err)
	}
	mkWires := func(n *netlist.Netlist) *netlist.WireModel {
		w := netlist.PrePlacementWires()
		// Mild per-net wire variation pre-placement (wire-load model error).
		spread := make([]float64, len(n.Gates))
		for i := range spread {
			spread[i] = 1 + 0.5*hash01(uint64(o.Seed)^0x77, uint64(i))
		}
		w.Spread = spread
		return w
	}
	wires := mkWires(nl)

	// Retiming: only move registers backward when the endpoint violates
	// and the downstream stage has enough slack to absorb the moved gate —
	// the classic legality/benefit condition. Candidates that fail the
	// check are dropped rather than applied blindly.
	if len(o.RetimeRefs) > 0 {
		t := nl.Analyze(o.Period, wires)
		keep := filterRetime(nl, t, o.RetimeRefs)
		if len(keep) > 0 {
			nl = techmap(balanced, lib, o.Seed, mapNoise, keep)
			if err := nl.Check(); err != nil {
				return nil, fmt.Errorf("synth: retime techmap: %w", err)
			}
			wires = mkWires(nl)
		}
	}
	groups := endpointGroups(nl, o.Groups)
	weights := adjustWeights(o.GroupWeights, len(groups))
	sizeForTiming(nl, o.Period, wires, groups, weights, o.SizingRounds)
	timing := nl.Analyze(o.Period, wires)

	// Pseudo-placement: per-gate wire spread, then one more optimization
	// pass under placed parasitics.
	placedWires := &netlist.WireModel{
		CapPerFanout:   1.5,
		DelayPerFanout: 0.0042,
		Spread:         placementSpread(nl, o.Seed),
	}
	placed := nl.Analyze(o.Period, placedWires)
	sizeForTiming(nl, o.Period, placedWires, groups, weights, o.SizingRounds/2)
	postOpt := nl.Analyze(o.Period, placedWires)

	return &Result{
		Netlist: nl,
		Timing:  timing,
		Report:  nl.PowerArea(),
		Placed:  placed,
		PostOpt: postOpt,
	}, nil
}

// filterRetime keeps only the retime candidates whose register is on a
// violating endpoint while every downstream endpoint still has slack to
// absorb the moved gate's delay.
func filterRetime(n *netlist.Netlist, t *netlist.Timing, refs []string) map[string]bool {
	const margin = 0.16 // ns of downstream slack required
	want := map[string]bool{}
	for _, r := range refs {
		want[r] = true
	}
	// Downstream worst endpoint slack per gate (reverse topological pass).
	ds := make([]float64, len(n.Gates))
	for i := range ds {
		ds[i] = 1e9
	}
	epSlack := map[netlist.GateID]float64{}
	for i := range n.Endpoints {
		ep := &n.Endpoints[i]
		if s, ok := epSlack[ep.D]; !ok || t.Slack[i] < s {
			epSlack[ep.D] = t.Slack[i]
		}
	}
	for i := len(n.Gates) - 1; i >= 0; i-- {
		if s, ok := epSlack[netlist.GateID(i)]; ok && s < ds[i] {
			ds[i] = s
		}
		g := &n.Gates[i]
		for j := 0; j < g.NumFanin(); j++ {
			f := g.Fanin[j]
			if ds[i] < ds[f] {
				ds[f] = ds[i]
			}
		}
	}
	keep := map[string]bool{}
	for i := range n.Endpoints {
		ep := &n.Endpoints[i]
		if ep.IsPO || !want[ep.Ref()] {
			continue
		}
		if t.Slack[i] < -0.02 && ds[ep.Q] > margin {
			keep[ep.Ref()] = true
		}
	}
	return keep
}

// endpointGroups resolves ref-based groups to endpoint indices. Endpoints
// not covered by any group form a trailing catch-all group.
func endpointGroups(n *netlist.Netlist, refGroups [][]string) [][]int {
	if len(refGroups) == 0 {
		all := make([]int, len(n.Endpoints))
		for i := range all {
			all[i] = i
		}
		return [][]int{all}
	}
	byRef := map[string]int{}
	for i := range n.Endpoints {
		byRef[n.Endpoints[i].Ref()] = i
	}
	used := make([]bool, len(n.Endpoints))
	var groups [][]int
	for _, refs := range refGroups {
		var idx []int
		for _, ref := range refs {
			if i, ok := byRef[ref]; ok && !used[i] {
				idx = append(idx, i)
				used[i] = true
			}
		}
		groups = append(groups, idx)
	}
	var rest []int
	for i := range n.Endpoints {
		if !used[i] {
			rest = append(rest, i)
		}
	}
	if len(rest) > 0 {
		groups = append(groups, rest)
	}
	return groups
}

func uniformWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// adjustWeights adapts user weights to the actual group count: a trailing
// catch-all group (uncovered endpoints) receives weight 1; a missing or
// mismatched weight vector falls back to uniform.
func adjustWeights(w []float64, n int) []float64 {
	if len(w) == n {
		return w
	}
	if len(w) == n-1 {
		return append(append([]float64(nil), w...), 1)
	}
	return uniformWeights(n)
}

// sizeForTiming runs timing-driven gate sizing. Each round targets the
// worst violating endpoint of one group (groups are visited in proportion
// to their weights) and upsizes the highest-impact drive-1 gates on its
// critical path. This mirrors how synthesis tools focus effort: with a
// single default group only the global critical path receives attention;
// with group_path every group gets its share (paper §3.5.2, Fig. 4).
func sizeForTiming(n *netlist.Netlist, period float64, wires *netlist.WireModel, groups [][]int, weights []float64, rounds int) {
	if rounds <= 0 {
		return
	}
	// Build the round-robin schedule proportional to weights.
	totalW := 0.0
	for _, w := range weights {
		totalW += w
	}
	if totalW == 0 {
		return
	}
	var schedule []int
	for gi, w := range weights {
		k := int(float64(rounds)*w/totalW + 0.5)
		if k == 0 && len(groups[gi]) > 0 {
			k = 1
		}
		for j := 0; j < k; j++ {
			schedule = append(schedule, gi)
		}
	}
	for _, gi := range schedule {
		group := groups[gi]
		if len(group) == 0 {
			continue
		}
		t := n.Analyze(period, wires)
		// Worst endpoint within the group.
		worst, worstSlack := -1, 0.0
		for _, ei := range group {
			if s := t.Slack[ei]; worst < 0 || s < worstSlack {
				worst, worstSlack = ei, s
			}
		}
		if worst < 0 || worstSlack >= 0 {
			continue // group already meets timing
		}
		path := t.CriticalPath(n, worst)
		upsizeAlong(n, t, path, 8)
	}
}

// upsizeAlong upsizes up to k drive-1 gates on the path, choosing those
// with the largest load-dependent delay contribution.
func upsizeAlong(n *netlist.Netlist, t *netlist.Timing, path []netlist.GateID, k int) int {
	type cand struct {
		id   netlist.GateID
		gain float64
	}
	var cands []cand
	for _, id := range path {
		g := &n.Gates[id]
		if g.Type != netlist.GComb || g.Cell.Drive >= n.Lib.MaxDrive(g.Cell.Kind) {
			continue
		}
		stronger := n.Lib.Cell(g.Cell.Kind, g.Cell.Drive+1)
		if stronger == nil {
			continue
		}
		gain := (g.Cell.DriveRes - stronger.DriveRes) * t.Load[id]
		cands = append(cands, cand{id: id, gain: gain})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].gain > cands[j].gain })
	changed := 0
	for _, c := range cands {
		if changed >= k {
			break
		}
		g := &n.Gates[c.id]
		g.Cell = n.Lib.Cell(g.Cell.Kind, g.Cell.Drive+1)
		changed++
	}
	return changed
}

// placementSpread derives a deterministic per-gate wire-delay multiplier
// from the design seed: gates land in different "regions" of the pseudo
// floorplan, and high-fanout nets span more of the die.
func placementSpread(n *netlist.Netlist, seed int64) []float64 {
	fo := n.FanoutCounts()
	out := make([]float64, len(n.Gates))
	for i := range out {
		h := hash01(uint64(seed), uint64(i))
		congestion := float64(min(int(fo[i]), 8)) / 8.0
		out[i] = 1.0 + 0.45*h + 0.25*congestion
	}
	return out
}

// hash01 maps (seed, x) to a deterministic float in [0, 1).
func hash01(seed, x uint64) float64 {
	h := seed*0x9E3779B97F4A7C15 + x*0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	return float64(h%(1<<52)) / float64(uint64(1)<<52)
}
