// Package synth simulates a logic-synthesis flow: the word-level design is
// bit-blasted to an AIG, optimized (constant propagation and tree
// balancing), technology-mapped onto the NanGate-45-flavoured gate library
// with pattern matching (NAND/NOR/XOR/XNOR/MUX/AOI/OAI covers) and
// per-design mapping noise, then timing-optimized by gate sizing. The
// mapped netlist is analyzed by netlist STA to produce the ground-truth
// endpoint arrival times that RTL-Timer learns to predict. The package
// also implements the two optimization options RTL-Timer drives
// (paper §3.5.2): group_path-weighted sizing effort and register retiming,
// plus a pseudo-placement wire model for the post-layout persistence study.
package synth

import (
	"fmt"
	"math/rand"

	"rtltimer/internal/bog"
	"rtltimer/internal/liberty"
	"rtltimer/internal/netlist"
)

// balance rewrites an AIG, collapsing single-fanout AND chains and
// rebuilding them as balanced trees. This is the depth-oriented logic
// optimization every synthesis tool performs, and the main source of
// structural divergence between the RTL-level graph and the netlist.
func balance(g *bog.Graph, seed int64) *bog.Graph {
	nb := bog.NewBuilder(g.Design, bog.AIG)
	fo := g.FanoutCounts()
	for _, ep := range g.Endpoints {
		fo[ep.D]++ // endpoint uses pin the driver
	}
	mapped := make([]bog.NodeID, len(g.Nodes))
	for i := range mapped {
		mapped[i] = bog.Nil
	}
	mapped[g.Zero()] = nb.Zero()
	mapped[g.One()] = nb.One()

	// Intern signal names once.
	sigMap := make([]int32, len(g.SigNames))
	for i, name := range g.SigNames {
		sigMap[i] = nb.AddSigName(name)
	}

	// Optimization effort varies cone by cone, as with real tools: most
	// AND trees are collapsed through a wide window and rebuilt balanced,
	// but a deterministic per-seed fraction only gets a narrow window
	// (weak restructuring). This is the main source of netlist timing
	// that RTL-level pseudo-STA cannot see.
	window := func(n bog.NodeID) int {
		h := hash01(uint64(seed)^0xA5A5, uint64(n))
		switch {
		case h < 0.22:
			return 4 // low effort: nearly no rebalancing
		case h < 0.40:
			return 10
		default:
			return 48
		}
	}
	var leavesOf func(n bog.NodeID, depth int, win int, out *[]bog.NodeID)
	leavesOf = func(n bog.NodeID, depth int, win int, out *[]bog.NodeID) {
		nd := &g.Nodes[n]
		if nd.Op == bog.And && fo[n] == 1 && depth < 14 && len(*out) < win {
			leavesOf(nd.Fanin[0], depth+1, win, out)
			leavesOf(nd.Fanin[1], depth+1, win, out)
			return
		}
		*out = append(*out, n)
	}
	var buildBalanced func(leaves []bog.NodeID) bog.NodeID
	buildBalanced = func(leaves []bog.NodeID) bog.NodeID {
		if len(leaves) == 1 {
			return mapped[leaves[0]]
		}
		mid := len(leaves) / 2
		return nb.AndOf(buildBalanced(leaves[:mid]), buildBalanced(leaves[mid:]))
	}

	for i := range g.Nodes {
		id := bog.NodeID(i)
		if mapped[id] != bog.Nil {
			continue
		}
		nd := &g.Nodes[i]
		switch nd.Op {
		case bog.Input:
			mapped[id] = nb.NewInput(sigMap[nd.Sig], int(nd.Bit))
		case bog.RegQ:
			mapped[id] = nb.NewRegQ(sigMap[nd.Sig], int(nd.Bit))
		case bog.Not:
			mapped[id] = nb.NotOf(mapped[nd.Fanin[0]])
		case bog.And:
			win := window(id)
			var leaves []bog.NodeID
			leavesOf(nd.Fanin[0], 1, win, &leaves)
			leavesOf(nd.Fanin[1], 1, win, &leaves)
			mapped[id] = buildBalanced(leaves)
		default:
			panic(fmt.Sprintf("synth: balance expects an AIG, found %v", nd.Op))
		}
	}
	for _, ep := range g.Endpoints {
		nep := ep
		nep.D = mapped[ep.D]
		if ep.Q != bog.Nil {
			nep.Q = mapped[ep.Q]
		}
		nb.Endpoints = append(nb.Endpoints, nep)
	}
	return nb.Graph
}

// mapper covers a (balanced) AIG with library cells.
type mapper struct {
	g     *bog.Graph
	n     *netlist.Netlist
	lib   *liberty.GateLib
	rng   *rand.Rand
	noise float64 // probability of choosing a non-canonical cover
	memo  []netlist.GateID
	fo    []int32
}

// retimePlan records the pre-created gates for one retimed register.
type retimePlan struct {
	ep     bog.Endpoint
	q0, q1 netlist.GateID
}

// matchXor reports whether AND node n computes XOR(a, b):
// n = AND(NOT(AND(a,b)), NOT(AND(NOT a, NOT b))).
func (m *mapper) matchXor(n bog.NodeID) (a, b bog.NodeID, ok bool) {
	nd := &m.g.Nodes[n]
	if nd.Op != bog.And {
		return 0, 0, false
	}
	u, v := nd.Fanin[0], nd.Fanin[1]
	if m.g.Nodes[u].Op != bog.Not || m.g.Nodes[v].Op != bog.Not {
		return 0, 0, false
	}
	ua, va := m.g.Nodes[u].Fanin[0], m.g.Nodes[v].Fanin[0]
	if m.g.Nodes[ua].Op != bog.And || m.g.Nodes[va].Op != bog.And {
		return 0, 0, false
	}
	// One inner AND over (a,b), the other over (~a,~b), in either order.
	try := func(andAB, andNN bog.NodeID) (bog.NodeID, bog.NodeID, bool) {
		p, q := m.g.Nodes[andAB].Fanin[0], m.g.Nodes[andAB].Fanin[1]
		x, y := m.g.Nodes[andNN].Fanin[0], m.g.Nodes[andNN].Fanin[1]
		if m.g.Nodes[x].Op != bog.Not || m.g.Nodes[y].Op != bog.Not {
			return 0, 0, false
		}
		nx, ny := m.g.Nodes[x].Fanin[0], m.g.Nodes[y].Fanin[0]
		if (nx == p && ny == q) || (nx == q && ny == p) {
			return p, q, true
		}
		return 0, 0, false
	}
	if p, q, ok := try(ua, va); ok {
		return p, q, true
	}
	if p, q, ok := try(va, ua); ok {
		return p, q, true
	}
	return 0, 0, false
}

// matchMuxInv reports whether AND node n computes NOT(MUX(s, t, e)):
// n = AND(NOT(AND(s,t)), NOT(AND(NOT s, e))).
func (m *mapper) matchMuxInv(n bog.NodeID) (s, t, e bog.NodeID, ok bool) {
	nd := &m.g.Nodes[n]
	if nd.Op != bog.And {
		return 0, 0, 0, false
	}
	u, v := nd.Fanin[0], nd.Fanin[1]
	if m.g.Nodes[u].Op != bog.Not || m.g.Nodes[v].Op != bog.Not {
		return 0, 0, 0, false
	}
	ua, va := m.g.Nodes[u].Fanin[0], m.g.Nodes[v].Fanin[0]
	if m.g.Nodes[ua].Op != bog.And || m.g.Nodes[va].Op != bog.And {
		return 0, 0, 0, false
	}
	try := func(x, y bog.NodeID) (bog.NodeID, bog.NodeID, bog.NodeID, bool) {
		// x = AND(s, t), y = AND(NOT s, e)
		xs, xt := m.g.Nodes[x].Fanin[0], m.g.Nodes[x].Fanin[1]
		for _, cand := range [][2]bog.NodeID{{xs, xt}, {xt, xs}} {
			s := cand[0]
			t := cand[1]
			ys, ye := m.g.Nodes[y].Fanin[0], m.g.Nodes[y].Fanin[1]
			for _, c2 := range [][2]bog.NodeID{{ys, ye}, {ye, ys}} {
				if m.g.Nodes[c2[0]].Op == bog.Not && m.g.Nodes[c2[0]].Fanin[0] == s {
					return s, t, c2[1], true
				}
			}
		}
		return 0, 0, 0, false
	}
	if s, t, e, ok := try(ua, va); ok {
		return s, t, e, true
	}
	if s, t, e, ok := try(va, ua); ok {
		return s, t, e, true
	}
	return 0, 0, 0, false
}

// gateOf returns (mapping on demand) the netlist gate computing AIG node n.
func (m *mapper) gateOf(n bog.NodeID) netlist.GateID {
	if m.memo[n] != netlist.Nil {
		return m.memo[n]
	}
	nd := &m.g.Nodes[n]
	var out netlist.GateID
	cell := func(kind liberty.CellKind) *liberty.Cell { return m.lib.Cell(kind, 1) }
	switch nd.Op {
	case bog.Const0:
		out = m.n.Zero()
	case bog.Const1:
		out = m.n.One()
	case bog.Input, bog.RegQ:
		panic("synth: sources must be pre-seeded")
	case bog.Not:
		x := nd.Fanin[0]
		xd := &m.g.Nodes[x]
		canPattern := m.fo[x] == 1 && m.rng.Float64() >= m.noise
		if xd.Op == bog.And && canPattern {
			if a, b, ok := m.matchXor(x); ok {
				out = m.n.AddComb(cell(liberty.CXnor2), m.gateOf(a), m.gateOf(b))
				break
			}
			if s, t, e, ok := m.matchMuxInv(x); ok {
				// NOT(NOT(MUX)) = MUX
				out = m.n.AddComb(cell(liberty.CMux2), m.gateOf(s), m.gateOf(t), m.gateOf(e))
				break
			}
			fa, fb := xd.Fanin[0], xd.Fanin[1]
			fad, fbd := &m.g.Nodes[fa], &m.g.Nodes[fb]
			// NOT(AND(NOT a, NOT b)) = OR2(a,b)
			if fad.Op == bog.Not && fbd.Op == bog.Not {
				out = m.n.AddComb(cell(liberty.COr2), m.gateOf(fad.Fanin[0]), m.gateOf(fbd.Fanin[0]))
				break
			}
			// NOT(AND(NOT(AND(a,b)), c)) = OAI-ish; map NOT(AND(x,y)) = NAND2.
			out = m.n.AddComb(cell(liberty.CNand2), m.gateOf(fa), m.gateOf(fb))
			break
		}
		out = m.n.AddComb(cell(liberty.CInv), m.gateOf(x))
	case bog.And:
		canPattern := m.rng.Float64() >= m.noise
		if canPattern {
			if a, b, ok := m.matchXor(n); ok && m.fo[m.g.Nodes[n].Fanin[0]] == 1 && m.fo[m.g.Nodes[n].Fanin[1]] == 1 {
				out = m.n.AddComb(cell(liberty.CXor2), m.gateOf(a), m.gateOf(b))
				break
			}
			if s, t, e, ok := m.matchMuxInv(n); ok && m.fo[nd.Fanin[0]] == 1 && m.fo[nd.Fanin[1]] == 1 {
				mx := m.n.AddComb(cell(liberty.CMux2), m.gateOf(s), m.gateOf(t), m.gateOf(e))
				out = m.n.AddComb(cell(liberty.CInv), mx)
				break
			}
			fa, fb := nd.Fanin[0], nd.Fanin[1]
			fad, fbd := &m.g.Nodes[fa], &m.g.Nodes[fb]
			// AND(NOT a, NOT b) = NOR2(a, b)
			if fad.Op == bog.Not && fbd.Op == bog.Not {
				out = m.n.AddComb(cell(liberty.CNor2), m.gateOf(fad.Fanin[0]), m.gateOf(fbd.Fanin[0]))
				break
			}
			// AND(NOT(AND(a,b)), c) = AOI21(a,b,c) inverted... AOI21 = ~(ab+c);
			// AND(NAND(a,b), NOT c) = ~(ab) & ~c = NOR(ab, c) = AOI21(a,b,c).
			if fad.Op == bog.Not && m.g.Nodes[fad.Fanin[0]].Op == bog.And && m.fo[fa] == 1 &&
				fbd.Op == bog.Not {
				inner := &m.g.Nodes[fad.Fanin[0]]
				out = m.n.AddComb(cell(liberty.CAoi21),
					m.gateOf(inner.Fanin[0]), m.gateOf(inner.Fanin[1]), m.gateOf(fbd.Fanin[0]))
				break
			}
			if fbd.Op == bog.Not && m.g.Nodes[fbd.Fanin[0]].Op == bog.And && m.fo[fb] == 1 &&
				fad.Op == bog.Not {
				inner := &m.g.Nodes[fbd.Fanin[0]]
				out = m.n.AddComb(cell(liberty.CAoi21),
					m.gateOf(inner.Fanin[0]), m.gateOf(inner.Fanin[1]), m.gateOf(fad.Fanin[0]))
				break
			}
		}
		// Default: AND2 or NAND2+INV under mapping noise.
		if m.rng.Float64() < m.noise {
			nand := m.n.AddComb(cell(liberty.CNand2), m.gateOf(nd.Fanin[0]), m.gateOf(nd.Fanin[1]))
			out = m.n.AddComb(cell(liberty.CInv), nand)
		} else {
			out = m.n.AddComb(cell(liberty.CAnd2), m.gateOf(nd.Fanin[0]), m.gateOf(nd.Fanin[1]))
		}
	default:
		panic(fmt.Sprintf("synth: techmap expects an AIG, found %v", nd.Op))
	}
	m.memo[n] = out
	return out
}

// techmap covers the AIG g with library cells, returning the netlist.
// retimeRefs lists endpoint refs ("sig[bit]") whose registers should be
// retimed backward one level where legal.
func techmap(g *bog.Graph, lib *liberty.GateLib, seed int64, noise float64, retimeRefs map[string]bool) *netlist.Netlist {
	n := netlist.New(g.Design, lib)
	m := &mapper{
		g:     g,
		n:     n,
		lib:   lib,
		rng:   rand.New(rand.NewSource(seed)),
		noise: noise,
		memo:  make([]netlist.GateID, len(g.Nodes)),
		fo:    g.FanoutCounts(),
	}
	for _, ep := range g.Endpoints {
		m.fo[ep.D]++
	}
	for i := range m.memo {
		m.memo[i] = netlist.Nil
	}
	m.memo[g.Zero()] = n.Zero()
	m.memo[g.One()] = n.One()

	// Decide the retime set up front (legality depends only on the graph).
	var plans []retimePlan
	retimed := map[bog.NodeID]bool{}
	if retimeRefs != nil {
		for _, ep := range g.Endpoints {
			if !ep.IsPO && retimeRefs[ep.Ref.String()] && m.canRetime(ep) {
				plans = append(plans, retimePlan{ep: ep})
				retimed[ep.Q] = true
			}
		}
	}

	// Pre-seed sources: inputs and register outputs. Retimed registers get
	// their replacement structure (two new DFF Qs feeding the moved AND)
	// instead of a plain Q, so every consumer sees the post-retime logic.
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		switch nd.Op {
		case bog.Input:
			name := fmt.Sprintf("%s[%d]", g.SigNames[nd.Sig], nd.Bit)
			m.memo[i] = n.Add(netlist.Gate{Type: netlist.GInput, Name: name, Fanin: [3]netlist.GateID{netlist.Nil, netlist.Nil, netlist.Nil}})
		case bog.RegQ:
			if retimed[bog.NodeID(i)] {
				continue // handled below
			}
			name := fmt.Sprintf("%s[%d]", g.SigNames[nd.Sig], nd.Bit)
			m.memo[i] = n.Add(netlist.Gate{Type: netlist.GDFFQ, Name: name, Fanin: [3]netlist.GateID{netlist.Nil, netlist.Nil, netlist.Nil}})
		}
	}
	for pi := range plans {
		p := &plans[pi]
		p.q0 = n.Add(netlist.Gate{Type: netlist.GDFFQ, Name: p.ep.Ref.String() + "#rt0", Fanin: [3]netlist.GateID{netlist.Nil, netlist.Nil, netlist.Nil}})
		p.q1 = n.Add(netlist.Gate{Type: netlist.GDFFQ, Name: p.ep.Ref.String() + "#rt1", Fanin: [3]netlist.GateID{netlist.Nil, netlist.Nil, netlist.Nil}})
		m.memo[p.ep.Q] = n.AddComb(lib.Cell(liberty.CAnd2, 1), p.q0, p.q1)
	}

	// Map the retimed registers' D cones and register their endpoints.
	for _, p := range plans {
		nd := &g.Nodes[p.ep.D]
		for k, q := range []netlist.GateID{p.q0, p.q1} {
			n.Endpoints = append(n.Endpoints, netlist.Endpoint{
				Signal: p.ep.Ref.Signal + "#rt",
				Bit:    p.ep.Ref.Bit*2 + k,
				D:      m.gateOf(nd.Fanin[k]),
				Q:      q,
			})
		}
	}

	// Map the remaining endpoints.
	for _, ep := range g.Endpoints {
		if !ep.IsPO && retimed[ep.Q] {
			continue
		}
		n.Endpoints = append(n.Endpoints, netlist.Endpoint{
			Signal: ep.Ref.Signal,
			Bit:    ep.Ref.Bit,
			D:      m.gateOf(ep.D),
			Q:      m.qGate(ep),
			IsPO:   ep.IsPO,
		})
	}
	return n
}

func (m *mapper) qGate(ep bog.Endpoint) netlist.GateID {
	if ep.Q == bog.Nil {
		return netlist.Nil
	}
	return m.memo[ep.Q]
}

// canRetime checks the backward-retiming legality of an endpoint: its D
// driver must be a 2-input AND whose fanin cones exclude the endpoint's own
// Q (no self loop through the moved gate) and which drives only this
// endpoint.
func (m *mapper) canRetime(ep bog.Endpoint) bool {
	d := ep.D
	nd := &m.g.Nodes[d]
	if nd.Op != bog.And || m.fo[d] != 1 {
		return false
	}
	// Self-loop check: walk the cone of the driver looking for ep.Q.
	seen := map[bog.NodeID]bool{}
	stack := []bog.NodeID{d}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		if cur == ep.Q {
			return false
		}
		c := &m.g.Nodes[cur]
		for j := 0; j < c.NumFanin(); j++ {
			stack = append(stack, c.Fanin[j])
		}
		if len(seen) > 512 {
			return false // bound the legality check
		}
	}
	return true
}
