package sta

import "rtltimer/internal/bog"

// consumerCSR is one graph's consumer adjacency in compressed sparse row
// form: cons[off[n]:off[n+1]] lists the consumers of node n, one entry per
// fanin slot that reads n, in (consumer id, slot) order — the order the
// analyzer accumulates loads in. ep[n] counts the timing endpoints whose D
// pin n drives. A consumerCSR is immutable once built: every analyzer of
// an edit chain shares its root's arrays, and whatever an edit changes
// lives in the analyzer's overlay (see Incremental).
type consumerCSR struct {
	off  []int32
	cons []bog.NodeID
	ep   []int32
}

// newConsumerCSR builds g's adjacency. Iterating nodes in id order with
// fanin slots in slot order yields each driver's list already in
// (consumer id, slot) order.
func newConsumerCSR(g *bog.Graph) *consumerCSR {
	n := len(g.Nodes)
	c := &consumerCSR{off: make([]int32, n+1), ep: make([]int32, n)}
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		for j := 0; j < nd.NumFanin(); j++ {
			c.off[nd.Fanin[j]+1]++
		}
	}
	for i := 0; i < n; i++ {
		c.off[i+1] += c.off[i]
	}
	c.cons = make([]bog.NodeID, c.off[n])
	next := append([]int32(nil), c.off[:n]...)
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		for j := 0; j < nd.NumFanin(); j++ {
			f := nd.Fanin[j]
			c.cons[next[f]] = bog.NodeID(i)
			next[f]++
		}
	}
	for _, e := range g.Endpoints {
		c.ep[e.D]++
	}
	return c
}

// list returns node n's consumers. The three-index slice caps the list at
// its own length, so an append can never run into the next node's list.
// Nodes inserted after the root was built have no root list.
func (c *consumerCSR) list(n bog.NodeID) []bog.NodeID {
	if int(n) >= len(c.ep) {
		return nil
	}
	lo, hi := c.off[n], c.off[n+1]
	return c.cons[lo:hi:hi]
}

// endpoints returns how many endpoints node n drives. Edits never add or
// move an endpoint, so an inserted node drives none.
func (c *consumerCSR) endpoints(n bog.NodeID) int32 {
	if int(n) >= len(c.ep) {
		return 0
	}
	return c.ep[n]
}

// adjacency returns the root consumer adjacency the analyzer's sessions
// share. A built or disk-restored analyzer builds it from its own graph
// on the first call; a session's analyzer holds its root from the moment
// the session opens and never builds one.
func (a *Analyzer) adjacency() *consumerCSR {
	a.adjOnce.Do(func() {
		if a.csr == nil {
			a.csr = newConsumerCSR(a.G)
		}
	})
	return a.csr
}

// Consumers returns node n's consumers, one entry per fanin slot that
// reads n, in (consumer id, slot) order. The slice is shared state and
// must not be modified. On a built or disk-restored analyzer the first
// call builds the adjacency.
func (a *Analyzer) Consumers(n bog.NodeID) []bog.NodeID {
	a.adjacency()
	return a.consumers(n)
}

// consumers is the one consumer lookup: the overlay's list when an edit
// changed n's, the root's otherwise. It skips adjacency's sync.Once, so
// the root must already be in place — as it is for every session's
// analyzer, whose hot loops call it.
func (a *Analyzer) consumers(n bog.NodeID) []bog.NodeID {
	if l, ok := a.overlay[n]; ok {
		return l
	}
	return a.csr.list(n)
}
