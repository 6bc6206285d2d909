package sta

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"rtltimer/internal/bog"
	"rtltimer/internal/liberty"
)

// Incremental is an editable pseudo-STA session: it edits a private
// Analyzer — its graph and the full per-node timing state (loads, slews,
// delays, fanout counts) — plus an arrival vector, accepting graph deltas
// and re-timing only what an edit can actually reach instead of re-running
// a full forward pass. The update is exact, not approximate — after every
// Apply the session's vectors are bit-identical to what a fresh Analyzer
// would compute on the edited graph (the property the incremental tests
// enforce across random edit sequences):
//
//   - loads change only for nodes whose consumer multiset changed (the two
//     ends of a re-pointed edge, the fanins of an op swap or insertion);
//     each is recomputed from scratch in the analyzer's exact accumulation
//     order — consumer input caps in (consumer id, slot) order, endpoint
//     caps, then wire load — never by floating-point add/subtract deltas,
//     which would drift;
//   - slews are pure functions of a node's own load and cell, so they
//     follow load changes one-for-one without propagating;
//   - delays follow their node's load and the worst fanin slew, so a slew
//     change dirties exactly its consumers;
//   - arrivals propagate through the downstream cone via a monotone
//     min-heap worklist over the fanout adjacency, with early cutoff the
//     moment a recomputed arrival is bit-identical to the old one. Node
//     ids are topological, so every pop is final.
//
// The analyzer reads its fanout adjacency (sorted consumer lists, one
// entry per fanin slot) from a shared read-only root CSR and keeps a map
// overlay holding only the lists that differ from it. A list is copied
// into the overlay on the session's first write to it, so neither the
// root nor a list inherited from an earlier analyzer of the chain is ever
// written. A session opened on an analyzer (NewIncrementalOn) reuses that
// analyzer's root and starts from its overlay, so opening one costs the
// per-node vector copies rather than an O(graph) adjacency rebuild, and
// no adjacency rebuild ever runs inside Apply. Cost per Apply is
// proportional to the affected cone, not the design — the property
// BenchmarkIncrementalSTA tracks against BenchmarkFullReanalyze.
//
// Snapshot returns the edited analyzer itself and seals the session. An
// Incremental is single-owner: unlike an Analyzer others can reach, it
// must not be shared across goroutines without external locking.
type Incremental struct {
	G *bog.Graph // the graph being edited, an.G

	an  *Analyzer // private until Snapshot
	arr []float64

	// owned marks the overlay lists this session copied and may write in
	// place; nil until the first write, which also clones an.overlay (it
	// starts out as the seeding analyzer's map, which is shared).
	owned map[bog.NodeID]bool

	heap   []bog.NodeID // arrival worklist (binary min-heap)
	inHeap []bool

	// Dirty lists, truncated per Apply and reused so the trial/revert hot
	// loop stays allocation-light. A node may appear more than once: every
	// recompute rebuilds its value from scratch and marks nothing when the
	// value is unchanged, and push deduplicates the arrival worklist.
	loadDirty  []bog.NodeID // consumer multiset changed
	cellDirty  []bog.NodeID // own cell changed (op swap, insert)
	delayDirty []bog.NodeID // delay inputs possibly changed
	arrSeed    []bog.NodeID // fanin arrival set changed

	recomputed int64 // cumulative arrival recomputes across Apply calls
	sealed     bool  // Snapshot handed the analyzer out; Apply refuses
}

// NewIncremental builds a session from scratch: one analyzer construction
// plus one serial forward pass, exactly the cost of a cold Analyze, and a
// root adjacency. The session edits that fresh analyzer in place, so
// nothing is copied.
func NewIncremental(g *bog.Graph, lib *liberty.PseudoLib) *Incremental {
	an := NewAnalyzer(g, lib)
	an.adjacency()
	return &Incremental{G: g, an: an, arr: an.Arrivals(1), inHeap: make([]bool, len(g.Nodes))}
}

// NewIncrementalOn seeds a session from an analyzer and its arrival
// vector (as returned by Arrivals, or frozen with it by Snapshot),
// skipping every timing pass but a lazy analyzer's static-state build,
// which runs here if nothing has run it yet. The session edits a private
// analyzer whose per-node vectors and arrivals are copies, so an and arr
// (typically an immutable cached RepResult's) are never mutated. The
// private analyzer shares an's root adjacency, built first if this is
// an's first session, and starts from an's overlay map, which it clones
// on its first write. g must be a private clone of an.G: the session owns
// and edits it from here on.
func NewIncrementalOn(an *Analyzer, g *bog.Graph, arr []float64) (*Incremental, error) {
	n := len(g.Nodes)
	if len(an.G.Nodes) != n || len(arr) != n {
		return nil, fmt.Errorf("sta: incremental seed covers %d nodes with %d arrivals, graph has %d",
			len(an.G.Nodes), len(arr), n)
	}
	an.static()
	priv := withState(g, an.Lib, slices.Clone(an.load), slices.Clone(an.slew), slices.Clone(an.delay), slices.Clone(an.fanout))
	priv.csr, priv.overlay = an.adjacency(), an.overlay
	return &Incremental{G: g, an: priv, arr: slices.Clone(arr), inHeap: make([]bool, n)}, nil
}

// NewIncrementalFromState seeds a session from previously computed
// period-free state — an Analyzer's State() vectors and an arrival vector
// from Arrivals — skipping every timing pass: it is NewAnalyzerFromState
// followed by NewIncrementalOn, so all vectors are copied and the source
// (typically an immutable cached RepResult) is never mutated, and the
// root adjacency is built from g. g, however, is owned by the session
// from here on and must be a private clone if the caller's graph is
// shared.
func NewIncrementalFromState(g *bog.Graph, lib *liberty.PseudoLib, load, slew, delay, arr []float64) (*Incremental, error) {
	an, err := NewAnalyzerFromState(g, lib, load, slew, delay, g.FanoutCounts())
	if err != nil {
		return nil, err
	}
	return NewIncrementalOn(an, g, arr)
}

// writable returns node f's consumer list for in-place edits, copying it
// into the analyzer's overlay on the first write (with room for one more
// consumer). Every list the session did not copy itself — the root's and
// those inherited from an earlier analyzer of the chain — is shared, and
// writing one in place would corrupt every analyzer that reads it.
func (s *Incremental) writable(f bog.NodeID) []bog.NodeID {
	if s.owned[f] {
		return s.an.overlay[f]
	}
	if s.owned == nil {
		s.owned = map[bog.NodeID]bool{}
		s.an.overlay = maps.Clone(s.an.overlay)
		if s.an.overlay == nil {
			s.an.overlay = map[bog.NodeID][]bog.NodeID{}
		}
	}
	cur := s.an.consumers(f)
	l := make([]bog.NodeID, len(cur), len(cur)+1)
	copy(l, cur)
	s.an.overlay[f] = l
	s.owned[f] = true
	return l
}

// FanoutCount returns node n's current fanout edge count.
func (s *Incremental) FanoutCount(n bog.NodeID) int { return int(s.an.fanout[n]) }

// EndpointCount returns how many timing endpoints node n drives. Edits
// that change a node's logic function (fanin re-pointing, op swaps) are
// only function-preserving at the design level when the node drives no
// endpoint directly — the optimizer consults this before rewriting.
func (s *Incremental) EndpointCount(n bog.NodeID) int { return int(s.an.csr.endpoints(n)) }

// Arrivals returns the current arrival vector. The slice aliases session
// state: it is valid for reading until the next Apply.
func (s *Incremental) Arrivals() []float64 { return s.arr }

// State exposes the edited analyzer's period-independent vectors
// (aliases, valid until the next Apply).
func (s *Incremental) State() (load, slew, delay []float64, fanout []int32) {
	an := s.an
	return an.load, an.slew, an.delay, an.fanout
}

// Recomputed returns the cumulative number of per-node arrival recomputes
// across all Apply calls — the measure of how much of the graph the edits
// actually touched (cone-proportional, not design-proportional).
func (s *Incremental) Recomputed() int64 { return s.recomputed }

// At materializes the pseudo-STA Result at one clock period through the
// edited analyzer: only the endpoint slack loop runs. The per-node vectors
// alias session state and are valid until the next Apply; the Result is
// bit-identical to a fresh Analyzer's At on the edited graph.
func (s *Incremental) At(period float64) *Result { return s.an.At(s.arr, period) }

// Snapshot seals the session and returns the analyzer it edited, with the
// session's arrival vector: nothing is copied or built. Once sealed, a
// later Apply returns an error, so the analyzer is immutable from here on
// and may be shared; Recomputed, G and the read accessors keep answering
// with the frozen state. The intended pattern (the engine's
// delta-derived cache entries) applies a delta, snapshots and discards
// the session; a session opened on the snapshot (NewIncrementalOn)
// continues the chain.
func (s *Incremental) Snapshot() (*Analyzer, []float64) {
	s.sealed = true
	return s.an, s.arr
}

// Apply applies the delta to the session's graph and incrementally
// re-times the affected cone. It returns the inverse delta (see
// bog.Graph.ApplyFunc); for insert-free deltas — the optimizer's trial/revert
// loop — applying that inverse restores every node's timing bit-exactly.
// A delta with insertions leaves orphan nodes behind on undo, whose
// residual input load shifts their fanins' timing (the session stays
// exactly consistent with a fresh analysis of the orphaned graph). On
// error the graph and the timing state are untouched; a session sealed by
// Snapshot refuses every delta.
func (s *Incremental) Apply(d bog.Delta) (undo bog.Delta, err error) {
	if s.sealed {
		return nil, errSealed
	}
	s.loadDirty, s.cellDirty = s.loadDirty[:0], s.cellDirty[:0]
	s.delayDirty, s.arrSeed = s.delayDirty[:0], s.arrSeed[:0]
	if undo, err = s.G.ApplyFunc(d, s.edited); err != nil {
		return nil, err
	}

	// Phase 1: loads, then slews (a slew is a function of its own load and
	// cell only, so there is no propagation among slews; a changed slew
	// dirties exactly the delays of its consumers).
	an := s.an
	for _, f := range s.loadDirty {
		nl := s.recomputeLoad(f)
		if nl == an.load[f] {
			continue
		}
		an.load[f] = nl
		s.delayDirty = append(s.delayDirty, f) // own delay depends on own load
		s.refreshSlew(f)
	}
	for _, n := range s.cellDirty {
		// An op swap changes the slew formula even when the load is
		// unchanged, and always changes the node's own delay terms.
		s.refreshSlew(n)
		s.delayDirty = append(s.delayDirty, n)
	}

	// Phase 2: delays. All loads and slews are final, and a delay depends
	// on nothing but them, so order is irrelevant.
	for _, i := range s.delayDirty {
		ndl := s.recomputeDelay(i)
		if ndl != an.delay[i] {
			an.delay[i] = ndl
			s.arrSeed = append(s.arrSeed, i)
		}
	}

	// Phase 3: arrivals over the downstream cone. The heap pops ids in
	// ascending (= topological) order and pushes only strictly larger ids,
	// so every pop reads final fanin arrivals and is itself final.
	for _, i := range s.arrSeed {
		s.push(i)
	}
	for len(s.heap) > 0 {
		i := s.pop()
		na := s.recomputeArrival(i)
		s.recomputed++
		if na == s.arr[i] {
			continue // early cutoff: downstream cannot change
		}
		s.arr[i] = na
		for _, c := range an.consumers(i) {
			s.push(c)
		}
	}
	return undo, nil
}

// edited updates the fanout adjacency for one edit ApplyFunc made and
// marks what it dirtied; inv is the edit's inverse (nil for an insert).
func (s *Incremental) edited(e bog.Edit, inv *bog.Edit) {
	switch e.Kind {
	case bog.EditSetFanin:
		old := inv.To
		s.fanoutRemove(old, e.Node)
		s.fanoutInsert(e.To, e.Node)
		s.loadDirty = append(s.loadDirty, old, e.To)
		s.delayDirty = append(s.delayDirty, e.Node) // worst-fanin-slew set changed
		s.arrSeed = append(s.arrSeed, e.Node)       // fanin arrival set changed
	case bog.EditSetOp:
		s.cellDirty = append(s.cellDirty, e.Node)
		nd := &s.G.Nodes[e.Node]
		s.loadDirty = append(s.loadDirty, nd.Fanin[:nd.NumFanin()]...) // their input cap changed
	case bog.EditInsert:
		id := bog.NodeID(len(s.G.Nodes) - 1)
		s.grow()
		nd := &s.G.Nodes[id]
		for j := 0; j < nd.NumFanin(); j++ {
			f := nd.Fanin[j]
			s.fanoutInsert(f, id)
			s.loadDirty = append(s.loadDirty, f)
		}
		s.loadDirty = append(s.loadDirty, id)
		s.cellDirty = append(s.cellDirty, id)
		s.arrSeed = append(s.arrSeed, id)
	}
}

// errSealed is Apply's refusal once Snapshot has handed the session's
// analyzer out.
var errSealed = errors.New("sta: session was frozen by Snapshot; open a new session on the snapshot")

// grow extends the per-node vectors for one appended node.
func (s *Incremental) grow() {
	an := s.an
	an.load = append(an.load, 0)
	an.slew = append(an.slew, 0)
	an.delay = append(an.delay, 0)
	an.fanout = append(an.fanout, 0)
	s.arr = append(s.arr, 0)
	s.inHeap = append(s.inHeap, false)
}

// lowerBound returns the first index in a sorted list whose value is not
// below c — the one search both fanout-list mutations share.
func lowerBound(list []bog.NodeID, c bog.NodeID) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// fanoutRemove drops one entry for consumer c from f's consumer list.
// When c references f through several slots the entries are adjacent and
// interchangeable, so removing any one of them is correct.
func (s *Incremental) fanoutRemove(f, c bog.NodeID) {
	list := s.writable(f)
	// lowerBound finds the first entry holding c (CheckDelta guarantees
	// presence).
	lo := lowerBound(list, c)
	copy(list[lo:], list[lo+1:])
	s.an.overlay[f] = list[:len(list)-1]
	s.an.fanout[f]--
}

// fanoutInsert adds consumer c to f's consumer list, keeping it sorted.
// An inserted node's id exceeds every existing consumer, so its entries
// land at the end.
func (s *Incremental) fanoutInsert(f, c bog.NodeID) {
	list := s.writable(f)
	lo := lowerBound(list, c)
	list = append(list, 0)
	copy(list[lo+1:], list[lo:])
	list[lo] = c
	s.an.overlay[f] = list
	s.an.fanout[f]++
}

// recomputeLoad rebuilds node f's output load from scratch in the
// analyzer's exact accumulation order: consumer input caps in (consumer
// id, slot) order, one endpoint cap per driven endpoint, then wire load.
func (s *Incremental) recomputeLoad(f bog.NodeID) float64 {
	an := s.an
	l := 0.0
	for _, c := range an.consumers(f) {
		l += an.Lib.Cells[s.G.Nodes[c].Op].InputCap
	}
	for k := an.csr.endpoints(f); k > 0; k-- {
		l += endpointCap
	}
	l += an.Lib.WireLoad * float64(an.fanout[f])
	return l
}

// refreshSlew recomputes node n's slew; when it changes, every consumer's
// delay becomes dirty (delay depends on the worst fanin slew).
func (s *Incremental) refreshSlew(n bog.NodeID) {
	an := s.an
	ns := nodeSlew(an.Lib, s.G.Nodes[n].Op, an.load[n])
	if ns == an.slew[n] {
		return
	}
	an.slew[n] = ns
	s.delayDirty = append(s.delayDirty, an.consumers(n)...)
}

func (s *Incremental) recomputeDelay(i bog.NodeID) float64 {
	an := s.an
	nd := &s.G.Nodes[i]
	worstSlew := 0.0
	for j := 0; j < nd.NumFanin(); j++ {
		if sl := an.slew[nd.Fanin[j]]; sl > worstSlew {
			worstSlew = sl
		}
	}
	return nodeDelay(an.Lib, nd.Op, an.load[i], worstSlew)
}

func (s *Incremental) recomputeArrival(i bog.NodeID) float64 {
	nd := &s.G.Nodes[i]
	worst := 0.0
	for j := 0; j < nd.NumFanin(); j++ {
		if a := s.arr[nd.Fanin[j]]; a > worst {
			worst = a
		}
	}
	return worst + s.an.delay[i]
}

// push adds i to the arrival worklist unless already queued.
func (s *Incremental) push(i bog.NodeID) {
	if s.inHeap[i] {
		return
	}
	s.inHeap[i] = true
	s.heap = append(s.heap, i)
	// Sift up.
	h := s.heap
	c := len(h) - 1
	for c > 0 {
		p := (c - 1) / 2
		if h[p] <= h[c] {
			break
		}
		h[p], h[c] = h[c], h[p]
		c = p
	}
}

// pop removes and returns the smallest queued id.
func (s *Incremental) pop() bog.NodeID {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	s.heap = h[:last]
	h = s.heap
	// Sift down.
	p := 0
	for {
		c := 2*p + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[p] <= h[c] {
			break
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
	s.inHeap[top] = false
	return top
}
