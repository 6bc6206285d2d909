package sta

import "rtltimer/internal/bog"

// RootCSR exposes an analyzer's root consumer adjacency to the external
// tests, building it first if the analyzer has none yet.
func RootCSR(a *Analyzer) (off []int32, cons []bog.NodeID) {
	c := a.adjacency()
	return c.off, c.cons
}
