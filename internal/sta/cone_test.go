package sta

import (
	"math"
	"testing"

	"rtltimer/internal/bog"
)

// inputConeRef is the retained map-based cone walk, the oracle for
// ConeWalker: a fresh visited map per endpoint, marking on pop.
func inputConeRef(g *bog.Graph, ep int) ConeInfo {
	var info ConeInfo
	seen := map[bog.NodeID]bool{}
	stack := []bog.NodeID{g.Endpoints[ep].D}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		nd := &g.Nodes[cur]
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
			stack = append(stack, nd.Fanin[j])
		}
	}
	return info
}

// InputConeRef exposes the oracle to the external test package.
var InputConeRef = inputConeRef

// TestConeWalkerEpochWrap leaves one pass's stamps in a walker and then
// sets its epoch to the largest uint32, so the next walk wraps. Were the
// stamps not cleared on the wrap, the restarted epochs would read the
// first pass's stamps as visited and undercount the cones.
func TestConeWalkerEpochWrap(t *testing.T) {
	g := buildGraph(t, pipelineSrc, bog.SOG)
	w := NewConeWalker(g)
	pass := func(what string) {
		t.Helper()
		for ep := range g.Endpoints {
			if got, want := w.InputCone(ep), inputConeRef(g, ep); got != want {
				t.Fatalf("%s: endpoint %d cone %+v, want %+v", what, ep, got, want)
			}
		}
	}
	pass("first pass")
	w.epoch = math.MaxUint32
	pass("pass across the wrap")
	if want := uint32(len(g.Endpoints)); w.epoch != want {
		t.Errorf("epoch after the wrap = %d, want %d (restart at 1)", w.epoch, want)
	}
}
