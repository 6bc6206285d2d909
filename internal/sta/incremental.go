package sta

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"rtltimer/internal/bog"
	"rtltimer/internal/liberty"
)

// Incremental is an editable pseudo-STA session: it owns a mutable graph
// plus the full per-node timing state (loads, slews, delays, arrivals) and
// accepts graph deltas, re-timing only what an edit can actually reach
// instead of re-running a full forward pass. The update is exact, not
// approximate — after every Apply the session's vectors are bit-identical
// to what a fresh Analyzer would compute on the edited graph (the
// property the incremental tests enforce across random edit sequences):
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
// The session reads its fanout adjacency (sorted consumer lists, one entry
// per fanin slot) from a shared read-only root CSR and keeps a map overlay
// holding only the lists that differ from it. A list is copied into the
// overlay on the session's first write to it, so neither the root nor a
// list inherited from an earlier analyzer of the chain is ever written.
// A session opened on an analyzer (NewIncrementalOn) reuses that
// analyzer's root and starts from its overlay, so opening one costs the
// per-node vector copies and a small map clone rather than an O(graph)
// adjacency rebuild, and no adjacency rebuild ever runs inside Apply.
// Cost per Apply is proportional to the affected cone, not the design —
// the property BenchmarkIncrementalSTA tracks against
// BenchmarkFullReanalyze.
//
// An Incremental is single-owner: unlike the immutable Analyzer it must
// not be shared across goroutines without external locking.
type Incremental struct {
	G   *bog.Graph
	Lib *liberty.PseudoLib

	load  []float64
	slew  []float64
	delay []float64
	arr   []float64

	fanoutCnt []int32 // per node: consumer list length, the analyzer's Fanout vector

	csr     *consumerCSR                // shared root adjacency, read-only
	overlay map[bog.NodeID][]bog.NodeID // lists that differ from csr's
	// owned marks the overlay lists this session copied and may write in
	// place; nil until the first write, which also clones overlay (it
	// starts out as the seeding analyzer's map, which is shared).
	owned map[bog.NodeID]bool

	heap   []bog.NodeID // arrival worklist (binary min-heap)
	inHeap []bool

	// Scratch dirty sets, owned by the session and cleared per Apply so
	// the trial/revert hot loop stays allocation-light.
	loadDirty  map[bog.NodeID]bool // consumer multiset changed
	cellDirty  map[bog.NodeID]bool // own cell changed (op swap, insert)
	delayDirty map[bog.NodeID]bool // delay inputs possibly changed
	arrSeed    map[bog.NodeID]bool // fanin arrival set changed

	recomputed int64 // cumulative arrival recomputes across Apply calls
	sealed     bool  // Snapshot handed the state over; Apply refuses
}

// NewIncremental builds a session from scratch: one analyzer construction
// plus one serial forward pass, exactly the cost of a cold Analyze, and
// a private root adjacency.
func NewIncremental(g *bog.Graph, lib *liberty.PseudoLib) *Incremental {
	an := NewAnalyzer(g, lib)
	s, err := NewIncrementalOn(an, g, an.Arrivals(1))
	if err != nil {
		// The analyzer and arrivals are of this same graph; a length
		// mismatch is impossible.
		panic(err)
	}
	return s
}

// NewIncrementalOn seeds a session from an analyzer and its arrival
// vector (as returned by Arrivals, or frozen with it by Snapshot),
// skipping every timing pass. The per-node vectors are copied, so the
// analyzer and arr (typically an immutable cached RepResult's) are never
// mutated. The session shares the analyzer's root adjacency, building it
// first if this is the analyzer's first session, and starts from its
// overlay. g must be a private clone of an.G: the session owns and edits
// it from here on.
func NewIncrementalOn(an *Analyzer, g *bog.Graph, arr []float64) (*Incremental, error) {
	n := len(g.Nodes)
	if len(an.G.Nodes) != n || len(arr) != n {
		return nil, fmt.Errorf("sta: incremental seed covers %d nodes with %d arrivals, graph has %d",
			len(an.G.Nodes), len(arr), n)
	}
	return newIncremental(g, an.Lib, an.adjacency(), an.overlay, slices.Clone(an.fanout),
		an.load, an.slew, an.delay, arr), nil
}

// NewIncrementalFromState seeds a session from previously computed
// period-free state — an Analyzer's State() vectors and an arrival vector
// from Arrivals — skipping every timing pass, and builds a private root
// adjacency from g. All vectors are copied, so the source (typically an
// immutable cached RepResult) is never mutated; g, however, is owned by
// the session from here on and must be a private clone if the caller's
// graph is shared.
func NewIncrementalFromState(g *bog.Graph, lib *liberty.PseudoLib, load, slew, delay, arr []float64) (*Incremental, error) {
	n := len(g.Nodes)
	if len(load) != n || len(slew) != n || len(delay) != n || len(arr) != n {
		return nil, fmt.Errorf("sta: incremental state vectors cover %d/%d/%d/%d nodes, graph has %d",
			len(load), len(slew), len(delay), len(arr), n)
	}
	return newIncremental(g, lib, newConsumerCSR(g), nil, g.FanoutCounts(), load, slew, delay, arr), nil
}

// newIncremental is the one session constructor: it takes ownership of
// fanout and copies the four timing vectors.
func newIncremental(g *bog.Graph, lib *liberty.PseudoLib, csr *consumerCSR, overlay map[bog.NodeID][]bog.NodeID,
	fanout []int32, load, slew, delay, arr []float64) *Incremental {
	return &Incremental{
		G: g, Lib: lib,
		load:       slices.Clone(load),
		slew:       slices.Clone(slew),
		delay:      slices.Clone(delay),
		arr:        slices.Clone(arr),
		fanoutCnt:  fanout,
		csr:        csr,
		overlay:    overlay,
		inHeap:     make([]bool, len(g.Nodes)),
		loadDirty:  map[bog.NodeID]bool{},
		cellDirty:  map[bog.NodeID]bool{},
		delayDirty: map[bog.NodeID]bool{},
		arrSeed:    map[bog.NodeID]bool{},
	}
}

// consumers returns node f's current consumer list (read-only).
func (s *Incremental) consumers(f bog.NodeID) []bog.NodeID {
	if l, ok := s.overlay[f]; ok {
		return l
	}
	return s.csr.list(f)
}

// writable returns node f's consumer list for in-place edits, copying it
// into the session's overlay on the first write (with room for one more
// consumer). Every list the session did not copy itself — the root's and
// those inherited from an earlier analyzer of the chain — is shared, and
// writing one in place would corrupt every analyzer that reads it.
func (s *Incremental) writable(f bog.NodeID) []bog.NodeID {
	if s.owned[f] {
		return s.overlay[f]
	}
	if s.owned == nil {
		s.owned = map[bog.NodeID]bool{}
		s.overlay = maps.Clone(s.overlay)
		if s.overlay == nil {
			s.overlay = map[bog.NodeID][]bog.NodeID{}
		}
	}
	cur := s.consumers(f)
	l := make([]bog.NodeID, len(cur), len(cur)+1)
	copy(l, cur)
	s.overlay[f] = l
	s.owned[f] = true
	return l
}

// FanoutCount returns node n's current fanout edge count.
func (s *Incremental) FanoutCount(n bog.NodeID) int { return int(s.fanoutCnt[n]) }

// EndpointCount returns how many timing endpoints node n drives. Edits
// that change a node's logic function (fanin re-pointing, op swaps) are
// only function-preserving at the design level when the node drives no
// endpoint directly — the optimizer consults this before rewriting.
func (s *Incremental) EndpointCount(n bog.NodeID) int { return int(s.csr.endpoints(n)) }

// Arrivals returns the current arrival vector. The slice aliases session
// state: it is valid for reading until the next Apply.
func (s *Incremental) Arrivals() []float64 { return s.arr }

// State exposes the current period-independent vectors (aliases, valid
// until the next Apply), mirroring Analyzer.State.
func (s *Incremental) State() (load, slew, delay []float64, fanout []int32) {
	return s.load, s.slew, s.delay, s.fanoutCnt
}

// Recomputed returns the cumulative number of per-node arrival recomputes
// across all Apply calls — the measure of how much of the graph the edits
// actually touched (cone-proportional, not design-proportional).
func (s *Incremental) Recomputed() int64 { return s.recomputed }

// At materializes the pseudo-STA Result at one clock period: only the
// endpoint slack loop runs. The per-node vectors alias session state and
// are valid until the next Apply; the Result is bit-identical to a fresh
// Analyzer's At on the edited graph.
func (s *Incremental) At(period float64) *Result {
	r := &Result{
		ClockPeriod: period,
		Arrival:     s.arr,
		Slew:        s.slew,
		Load:        s.load,
		Fanout:      s.fanoutCnt,
	}
	finishResult(s.G, s.Lib, r, period)
	return r
}

// Snapshot freezes the session into an Analyzer plus arrival vector by
// handing its state over instead of copying it: the Analyzer takes the
// session's graph, its per-node vectors (fanout counts included), its
// root adjacency and its overlay, and the arrival vector is the session's
// own. The session is sealed — a later Apply returns an error — so the
// snapshot is immutable from here on; Recomputed, G and the read
// accessors keep answering with the frozen state. The intended pattern
// (the engine's delta-derived cache entries) applies a delta, snapshots
// and discards the session; a session opened on the snapshot
// (NewIncrementalOn) continues the chain.
func (s *Incremental) Snapshot() (*Analyzer, []float64) {
	s.sealed = true
	return &Analyzer{
		G: s.G, Lib: s.Lib,
		load: s.load, slew: s.slew, delay: s.delay, fanout: s.fanoutCnt,
		csr: s.csr, overlay: s.overlay,
	}, s.arr
}

// Apply applies the delta to the session's graph and incrementally
// re-times the affected cone. It returns the inverse delta (see
// bog.Graph.Apply); for insert-free deltas — the optimizer's trial/revert
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
	if err := s.G.CheckDelta(d); err != nil {
		return nil, err
	}
	// Dirty sets (session-owned scratch). Iteration order over these maps
	// is irrelevant: every recompute rebuilds its value from scratch, and
	// the arrival worklist orders itself by node id.
	loadDirty, cellDirty, delayDirty, arrSeed := s.loadDirty, s.cellDirty, s.delayDirty, s.arrSeed
	clear(loadDirty)
	clear(cellDirty)
	clear(delayDirty)
	clear(arrSeed)

	undo = make(bog.Delta, 0, len(d))
	for _, e := range d {
		switch e.Kind {
		case bog.EditSetFanin:
			old := s.G.Nodes[e.Node].Fanin[e.Slot]
			if err := s.G.SetFanin(e.Node, int(e.Slot), e.To); err != nil {
				return nil, err
			}
			if old == e.To {
				continue
			}
			s.fanoutRemove(old, e.Node)
			s.fanoutInsert(e.To, e.Node)
			loadDirty[old] = true
			loadDirty[e.To] = true
			delayDirty[e.Node] = true // worst-fanin-slew set changed
			arrSeed[e.Node] = true    // fanin arrival set changed
			undo = append(undo, bog.SetFaninEdit(e.Node, int(e.Slot), old))
		case bog.EditSetOp:
			old := s.G.Nodes[e.Node].Op
			if err := s.G.SetOp(e.Node, e.Op); err != nil {
				return nil, err
			}
			if old == e.Op {
				continue
			}
			cellDirty[e.Node] = true
			nd := &s.G.Nodes[e.Node]
			for j := 0; j < nd.NumFanin(); j++ {
				loadDirty[nd.Fanin[j]] = true // its input cap changed
			}
			undo = append(undo, bog.SetOpEdit(e.Node, old))
		case bog.EditInsert:
			id, ierr := s.G.InsertNode(e.Op, e.Fanin[:editArity(e.Op)]...)
			if ierr != nil {
				return nil, ierr
			}
			s.grow()
			nd := &s.G.Nodes[id]
			for j := 0; j < nd.NumFanin(); j++ {
				f := nd.Fanin[j]
				s.fanoutInsert(f, id)
				loadDirty[f] = true
			}
			loadDirty[id] = true
			cellDirty[id] = true
			arrSeed[id] = true
		}
	}

	// Phase 1: loads, then slews (a slew is a function of its own load and
	// cell only, so there is no propagation among slews; a changed slew
	// dirties exactly the delays of its consumers).
	for f := range loadDirty {
		nl := s.recomputeLoad(f)
		if nl == s.load[f] {
			continue
		}
		s.load[f] = nl
		delayDirty[f] = true // own delay depends on own load
		s.refreshSlew(f, delayDirty)
	}
	for n := range cellDirty {
		// An op swap changes the slew formula even when the load is
		// unchanged, and always changes the node's own delay terms.
		s.refreshSlew(n, delayDirty)
		delayDirty[n] = true
	}

	// Phase 2: delays. All loads and slews are final, and a delay depends
	// on nothing but them, so order is irrelevant.
	for i := range delayDirty {
		ndl := s.recomputeDelay(i)
		if ndl != s.delay[i] {
			s.delay[i] = ndl
			arrSeed[i] = true
		}
	}

	// Phase 3: arrivals over the downstream cone. The heap pops ids in
	// ascending (= topological) order and pushes only strictly larger ids,
	// so every pop reads final fanin arrivals and is itself final.
	for i := range arrSeed {
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
		for _, c := range s.consumers(i) {
			s.push(c)
		}
	}

	for i, j := 0, len(undo)-1; i < j; i, j = i+1, j-1 {
		undo[i], undo[j] = undo[j], undo[i]
	}
	return undo, nil
}

// errSealed is Apply's refusal once Snapshot has handed the session's
// state to an Analyzer.
var errSealed = errors.New("sta: session was frozen by Snapshot; open a new session on the snapshot")

// editArity mirrors the operator fanin-slot count for delta inserts.
func editArity(op bog.Op) int {
	n := bog.Node{Op: op}
	return n.NumFanin()
}

// grow extends the per-node vectors for one appended node.
func (s *Incremental) grow() {
	s.load = append(s.load, 0)
	s.slew = append(s.slew, 0)
	s.delay = append(s.delay, 0)
	s.arr = append(s.arr, 0)
	s.fanoutCnt = append(s.fanoutCnt, 0)
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
	s.overlay[f] = list[:len(list)-1]
	s.fanoutCnt[f]--
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
	s.overlay[f] = list
	s.fanoutCnt[f]++
}

// recomputeLoad rebuilds node f's output load from scratch in the
// analyzer's exact accumulation order: consumer input caps in (consumer
// id, slot) order, one endpoint cap per driven endpoint, then wire load.
func (s *Incremental) recomputeLoad(f bog.NodeID) float64 {
	l := 0.0
	for _, c := range s.consumers(f) {
		l += s.Lib.Cells[s.G.Nodes[c].Op].InputCap
	}
	for k := s.csr.endpoints(f); k > 0; k-- {
		l += endpointCap
	}
	l += s.Lib.WireLoad * float64(s.fanoutCnt[f])
	return l
}

// refreshSlew recomputes node n's slew; when it changes, every consumer's
// delay becomes dirty (delay depends on the worst fanin slew).
func (s *Incremental) refreshSlew(n bog.NodeID, delayDirty map[bog.NodeID]bool) {
	ns := s.recomputeSlew(n)
	if ns == s.slew[n] {
		return
	}
	s.slew[n] = ns
	for _, c := range s.consumers(n) {
		delayDirty[c] = true
	}
}

func (s *Incremental) recomputeSlew(n bog.NodeID) float64 {
	return nodeSlew(s.Lib, s.G.Nodes[n].Op, s.load[n])
}

func (s *Incremental) recomputeDelay(i bog.NodeID) float64 {
	nd := &s.G.Nodes[i]
	worstSlew := 0.0
	for j := 0; j < nd.NumFanin(); j++ {
		if sl := s.slew[nd.Fanin[j]]; sl > worstSlew {
			worstSlew = sl
		}
	}
	return nodeDelay(s.Lib, nd.Op, s.load[i], worstSlew)
}

func (s *Incremental) recomputeArrival(i bog.NodeID) float64 {
	nd := &s.G.Nodes[i]
	worst := 0.0
	for j := 0; j < nd.NumFanin(); j++ {
		if a := s.arr[nd.Fanin[j]]; a > worst {
			worst = a
		}
	}
	return worst + s.delay[i]
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
