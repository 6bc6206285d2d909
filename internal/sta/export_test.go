package sta

import "rtltimer/internal/bog"

// RootCSR exposes an analyzer's root consumer adjacency to the external
// tests, building it first if the analyzer has none yet.
func RootCSR(a *Analyzer) (off []int32, cons []bog.NodeID) {
	c := a.adjacency()
	return c.off, c.cons
}

// StaticBuilt reports whether the analyzer's static state is in place:
// always for NewAnalyzer's, and for a lazy analyzer's once a reader has
// built it.
func StaticBuilt(a *Analyzer) bool { return a.delay != nil }
