// Shard-local edit derivation: RepResult.Edit on a sharded base routes a
// delta to the one shard that exclusively owns every node it touches,
// re-timing only that shard instead of the whole design.
//
// Soundness rests on the partition's ownership closure (package part): a
// node exclusively owned by shard s has every transitive consumer, every
// driven endpoint and every fanout edge inside s — cones are fanin-closed,
// so any shard containing a consumer contains the node too. An edit whose
// load-affected nodes (the edited node, its fanins old and new) are all
// owned by s therefore cannot change a load, slew, delay or arrival
// outside s: the shard-local incremental session sees the complete fanout
// adjacency and endpoint set of every node it recomputes, and recomputes
// them in the exact global accumulation order (the shard's node map is
// monotone, so local consumer order equals global consumer order). The
// derived global state is the base state with the shard's updates
// scattered over it — bit-identical to the full-graph derivation, which
// the engine's tests assert.
//
// Deltas that touch shared (replicated) nodes, constants, or nodes of two
// different shards fall back to the full-graph path in derive().
package engine

import (
	"fmt"

	"rtltimer/internal/bog"
	"rtltimer/internal/features"
	"rtltimer/internal/part"
	"rtltimer/internal/sta"
)

// routeShard returns the shard exclusively owning every node whose state
// the delta can change, or -1 when no single shard qualifies and the
// edit must derive on the full graph. Per edit that is: the edited node
// itself (delay/arrival, and its downstream cone via ownership closure)
// plus every load-affected node — for a fanin re-point the displaced
// slot's value and the new target (a multi-edit delta's true displaced
// value is either the base fanin or an earlier edit's To, both checked),
// for an op swap every fanin (the node's input cap changes on all of
// them), for an insert its fanins. Untouched fanins may be shared
// replicas: they are only read (slew for delay, arrival for max), and
// gathered shard state holds their exact global values.
func (rr *RepResult) routeShard(p *part.Partition, delta bog.Delta) int {
	// Malformed deltas (ids or slots out of range) route to the full-graph
	// path, whose session rejects them with CheckDelta's error — exactly
	// like an edit on a monolithic base. Routing itself may then index
	// fanin slots and the ownership table without further bounds checks.
	if rr.Graph.CheckDelta(delta) != nil {
		return -1
	}
	n := bog.NodeID(len(rr.Graph.Nodes))
	want := part.Shared
	check := func(id bog.NodeID) bool {
		if id >= n {
			return true // inserted by this delta: owned by the routed shard
		}
		o := p.Owner(id)
		if o < 0 {
			return false
		}
		if want < 0 {
			want = o
		}
		return o == want
	}
	checkFanins := func(id bog.NodeID) bool {
		if id >= n {
			return true // insert fanins are checked at the insert
		}
		nd := &rr.Graph.Nodes[id]
		for j := 0; j < nd.NumFanin(); j++ {
			if !check(nd.Fanin[j]) {
				return false
			}
		}
		return true
	}
	for _, e := range delta {
		switch e.Kind {
		case bog.EditSetFanin:
			if !check(e.Node) || !check(e.To) {
				return -1
			}
			if e.Node < n {
				nd := &rr.Graph.Nodes[e.Node]
				if int(e.Slot) < nd.NumFanin() && !check(nd.Fanin[e.Slot]) {
					return -1
				}
			}
		case bog.EditSetOp:
			if !check(e.Node) || !checkFanins(e.Node) {
				return -1
			}
		case bog.EditInsert:
			for j := 0; j < 3; j++ {
				if e.Fanin[j] != bog.Nil && !check(e.Fanin[j]) {
					return -1
				}
			}
		default:
			return -1
		}
	}
	return int(want)
}

// deriveShard computes the edited evaluation through shard s: clone and
// incrementally re-time only the shard subgraph, apply the delta
// structurally to a clone of the full graph, and scatter the shard's
// updated per-node state over copies of the base vectors. Like the
// full-graph path, it gives the result a fresh lazy extractor of the
// edited graph, which walks no cone until a feature is read.
func (rr *RepResult) deriveShard(sh *sta.ShardedAnalyzer, s int, delta bog.Delta, key Key, eng *Engine) (*RepResult, error) {
	p := sh.P
	shard := &p.Shards[s]
	nG := len(rr.Graph.Nodes)
	nL := len(shard.Nodes)
	localID := func(g bog.NodeID) (bog.NodeID, error) {
		if int(g) >= nG {
			// Nodes inserted by this delta append in lockstep locally and
			// globally.
			return bog.NodeID(nL + (int(g) - nG)), nil
		}
		if l := shard.LocalID(g); l != bog.Nil {
			return l, nil
		}
		return bog.Nil, fmt.Errorf("engine: shard %d does not contain node %d", s, g)
	}
	local := make(bog.Delta, len(delta))
	for i, e := range delta {
		le := e
		var err error
		switch e.Kind {
		case bog.EditSetFanin:
			if le.Node, err = localID(e.Node); err == nil {
				le.To, err = localID(e.To)
			}
		case bog.EditSetOp:
			le.Node, err = localID(e.Node)
		case bog.EditInsert:
			for j := 0; j < 3 && err == nil; j++ {
				if e.Fanin[j] != bog.Nil {
					le.Fanin[j], err = localID(e.Fanin[j])
				}
			}
		}
		if err != nil {
			return nil, err
		}
		local[i] = le
	}

	// Shard-local re-timing: the session re-times only the edit's
	// downstream cone, which ownership confines to this shard.
	la := sh.ShardAnalyzer(s)
	lload, lslew, ldelay, _ := la.State()
	larr := make([]float64, nL)
	for l, gid := range shard.Nodes {
		larr[l] = rr.Arrival[gid]
	}
	inc, err := sta.NewIncrementalFromState(shard.Graph.Clone(), rr.An.Lib, lload, lslew, ldelay, larr)
	if err != nil {
		return nil, err
	}
	if _, err := inc.Apply(local); err != nil {
		return nil, err
	}

	// Global structure: the delta replays on a clone of the full graph
	// (pure pointer surgery, no timing pass).
	g2 := rr.Graph.Clone()
	if _, err := g2.Apply(delta); err != nil {
		return nil, err
	}
	n2 := len(g2.Nodes)

	// Scatter the shard's updated state over copies of the base vectors.
	// Only owned local nodes scatter: replicated nodes carry partial local
	// adjacency, and ownership guarantees none of their values changed.
	// The session state is snapshotted into a standalone shard analyzer
	// first — it outlives this derivation as the derived result's shard-s
	// view, which is what keeps a *chain* of edits on the shard-local path.
	gload, gslew, gdelay, gfan := rr.An.State()
	load2 := growF64(gload, n2)
	slew2 := growF64(gslew, n2)
	delay2 := growF64(gdelay, n2)
	fan2 := growI32(gfan, n2)
	arr2 := growF64(rr.Arrival, n2)
	localAn, l2arr := inc.Snapshot()
	l2load, l2slew, l2delay, l2fan := localAn.State()
	scatter := func(l int, gid bog.NodeID) {
		load2[gid] = l2load[l]
		slew2[gid] = l2slew[l]
		delay2[gid] = l2delay[l]
		fan2[gid] = l2fan[l]
		arr2[gid] = l2arr[l]
	}
	for l, gid := range shard.Nodes {
		if p.Owner(gid) == int32(s) {
			scatter(l, gid)
		}
	}
	for t := 0; t < n2-nG; t++ {
		scatter(nL+t, bog.NodeID(nG+t))
	}

	an2, err := sta.NewAnalyzerFromState(g2, rr.An.Lib, load2, slew2, delay2, fan2)
	if err != nil {
		return nil, err
	}
	// Carry the shard view forward: the derived partition is the base one
	// with shard s replaced by the session's edited subgraph (inserted
	// nodes appended in lockstep locally and globally, owned by s), and the
	// derived sharded analyzer swaps in the snapshot of the session state.
	// Every other shard is untouched by construction, so a chain of
	// optimizer edits keeps routing shard-locally instead of falling back
	// to full-graph derivation after the first hop.
	p2 := p.WithEditedShard(g2, s, localAn.G, n2-nG)
	sh2 := sh.WithEditedShard(an2, p2, s, localAn, n2-nG)
	return &RepResult{
		Graph:         g2,
		An:            an2,
		Arrival:       arr2,
		ArrivalSHA256: ArrivalDigest(arr2),
		Ext:           features.NewExtractor(g2, an2.At(arr2, 0)),
		sh:            sh2,
		eng:           eng,
		key:           key,
	}, nil
}

func growF64(src []float64, n int) []float64 {
	out := make([]float64, n)
	copy(out, src)
	return out
}

func growI32(src []int32, n int) []int32 {
	out := make([]int32, n)
	copy(out, src)
	return out
}
