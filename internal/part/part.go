// Package part implements register-bounded design sharding: it cuts a BOG
// into K shards that are each independently timable with zero iteration,
// the scaling substrate the ROADMAP names for huge designs.
//
// Registers and primary inputs are the timing startpoints of the
// pseudo-STA — a source node's arrival is a pure function of the
// analyzer's static state, never of another node's arrival — so the
// forward max-plus pass decomposes along register boundaries: the arrival
// of every combinational node depends only on its transitive fanin cone.
// A shard is therefore a group of timing endpoints together with the
// fanin-closure of their driver cones. Cones of different endpoints
// overlap freely in real designs (one giant combinational cluster is the
// common case, not the exception), so shards replicate shared cone
// nodes instead of trying to cut through them: every replica computes
// bit-identical arrivals (same fanins, same static delays, max is
// order-insensitive), which is what keeps the stitched result exactly
// equal to the monolithic pass.
//
// Replication is the whole cost of sharding, so the assignment is
// overlap-aware: endpoint cones are grouped by their fanin affinity —
// cones whose source supports (the registers and primary inputs they
// transitively read) coincide or largely coincide are clustered together,
// hypergraph-style — and each cone is then placed on the shard where it
// adds the fewest new nodes, with shard load only breaking ties and a
// capacity bound keeping shards balanced enough to parallelize. A cone
// already fully present on a shard therefore always lands there. The
// pre-overlap greedy packer (cost = load + marginal, which let shard load
// drown the overlap signal and replicated ~3x on real designs) is
// retained as NewGreedy, both as the benchmark baseline and as a
// portfolio member: New packs both ways and keeps whichever result
// replicates less, so the overlap-aware partition is never worse than the
// old one on any graph.
//
// The assignment stays deterministic: root order, clustering and
// placement use only graph structure and fixed tie-breaks (lowest index
// wins), so the same graph and K always produce the same shards. Dead
// combinational logic — nodes on no endpoint cone — is attached through
// its fanout-free sinks, which are partitioned exactly like endpoints, so
// every node of the parent graph is covered by at least one shard and the
// stitched arrival vector is total.
//
// Ownership: a node covered by exactly one shard is "owned" by it.
// Because cones are fanin-closed, ownership is closed downstream — every
// transitive consumer of an owned node lives in the same shard, and so
// does every endpoint the node can reach, so an edit whose touched nodes
// are all owned by one shard cannot change any timing value outside it.
//
// Nothing in the engine partitions any more: the package stays only
// because perfbench still calls New and Auto, and goes once ROADMAP item
// 2's benchmark PR stops that.
package part

import (
	"math/bits"
	"slices"
	"sort"

	"rtltimer/internal/bog"
)

// Shared marks a node covered by two or more shards (or by none — an
// unreferenced source, whose arrival the stitcher fills directly).
const Shared int32 = -1

// MaxShards bounds the automatic shard count. Shards beyond the worker
// count only add replication overhead; 16 covers every machine the
// benchmarks target.
const MaxShards = 16

// autoRegsPerShard is the register-bit budget per automatic shard. Small
// designs (< 2*autoRegsPerShard register bits) stay monolithic: their
// forward pass is too cheap to amortize per-shard replication (see the
// README's "when sharding helps" note).
const autoRegsPerShard = 64

// Auto returns the automatic shard count for a design with the given
// number of register bits: 1 (monolithic) below 2*autoRegsPerShard bits,
// then one shard per autoRegsPerShard bits, capped at MaxShards.
func Auto(regBits int) int {
	k := regBits / autoRegsPerShard
	if k < 2 {
		return 1
	}
	if k > MaxShards {
		return MaxShards
	}
	return k
}

// Shard is one register-bounded piece of a partitioned graph.
type Shard struct {
	// Graph is the extracted subgraph (bog.Subgraph): fanin-closed, locally
	// topological, constants at local ids 0 and 1.
	Graph *bog.Graph
	// Nodes maps local→global node ids (ascending; Nodes[i] is the global
	// id of Graph.Nodes[i]).
	Nodes []bog.NodeID
	// Endpoints lists the global endpoint indices assigned to this shard,
	// ascending. Shard.Graph's endpoints are exactly these, in this order.
	Endpoints []int
}

// LocalID returns the shard-local id of a global node, or bog.Nil when the
// shard does not contain it.
func (s *Shard) LocalID(g bog.NodeID) bog.NodeID {
	if l, ok := slices.BinarySearch(s.Nodes, g); ok {
		return bog.NodeID(l)
	}
	return bog.Nil
}

// Partition is a deterministic register-bounded K-way sharding of a graph:
// the same graph and K always produce the same shards.
type Partition struct {
	G *bog.Graph
	K int

	Shards []Shard

	// owner[i] is the shard that exclusively covers global node i, or
	// Shared when the node is replicated across shards (or covered by
	// none). See the package comment for why exclusive ownership is
	// downstream-closed.
	owner []int32
}

// unowned is the pre-cover sentinel, distinct from Shared so that a third
// covering shard cannot reclaim a node that two shards already share.
const unowned int32 = -2

// Owner returns the shard exclusively covering global node n, or Shared.
// Ids outside the partitioned graph — nodes that do not exist (yet) —
// are Shared: the caller cannot assume anything about their placement.
func (p *Partition) Owner(n bog.NodeID) int32 {
	if n < 0 || int(n) >= len(p.owner) || p.owner[n] < 0 {
		return Shared
	}
	return p.owner[n]
}

// Replication measures how much node work the partition duplicates: the
// total number of non-constant node slots across all shards divided by
// the number of distinct non-constant nodes covered by at least one
// shard. 1.0 means zero overlap between shards; the two constant nodes
// are excluded because they are replicated into every shard by
// construction. An empty partition reports 1.0.
func (p *Partition) Replication() float64 {
	slots, distinct := 0, 0
	seen := make([]bool, len(p.G.Nodes))
	for s := range p.Shards {
		for _, id := range p.Shards[s].Nodes {
			if id <= 1 {
				continue
			}
			slots++
			if int(id) < len(seen) && !seen[id] {
				seen[id] = true
				distinct++
			}
		}
	}
	if distinct == 0 {
		return 1.0
	}
	return float64(slots) / float64(distinct)
}

// MaxShardNodes returns the node count of the largest shard — the serial
// critical path of the sharded forward pass.
func (p *Partition) MaxShardNodes() int {
	m := 0
	for s := range p.Shards {
		if n := len(p.Shards[s].Nodes); n > m {
			m = n
		}
	}
	return m
}

func isComb(op bog.Op) bool {
	switch op {
	case bog.Not, bog.And, bog.Or, bog.Xor, bog.Mux:
		return true
	}
	return false
}

// root is one cone root: an endpoint driver or a dead combinational sink,
// with the fanin-closure of its cone and the cone's source support.
type root struct {
	node bog.NodeID
	ep   int // global endpoint index, -1 for dead sinks
	cone []bog.NodeID
	// sig is the cone's source-support bitset over dense source indices
	// (registers and primary inputs in the cone; constants excluded), the
	// affinity signature of the overlap-aware packer. sigN is its
	// popcount.
	sig  []uint64
	sigN int
}

// computeRoots enumerates the cone roots of g and their fanin-closed
// cones: every endpoint driver, plus every dead combinational sink
// (fanout-free operator driving no endpoint). Dead logic is upward-closed
// — a consumer of a dead node is dead too — so the sinks' cones cover
// every node the endpoint cones miss, except unreferenced sources, which
// the stitcher fills directly.
func computeRoots(g *bog.Graph) []root {
	n := len(g.Nodes)
	fanout := g.FanoutCounts()
	isDriver := make([]bool, n)
	for _, ep := range g.Endpoints {
		isDriver[ep.D] = true
	}
	var roots []root
	for i, ep := range g.Endpoints {
		roots = append(roots, root{node: ep.D, ep: i})
	}
	for i := range g.Nodes {
		if isComb(g.Nodes[i].Op) && fanout[i] == 0 && !isDriver[i] {
			roots = append(roots, root{node: bog.NodeID(i), ep: -1})
		}
	}

	// Cone node lists, via an epoch-stamped visited array (no O(n) clear
	// per root).
	stamp := make([]int32, n)
	var stack []bog.NodeID
	for ri := range roots {
		epoch := int32(ri + 1)
		stack = append(stack[:0], roots[ri].node)
		var cone []bog.NodeID
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if stamp[cur] == epoch {
				continue
			}
			stamp[cur] = epoch
			cone = append(cone, cur)
			nd := &g.Nodes[cur]
			for j := 0; j < nd.NumFanin(); j++ {
				if f := nd.Fanin[j]; stamp[f] != epoch {
					stack = append(stack, f)
				}
			}
		}
		roots[ri].cone = cone
	}
	return roots
}

// packing is the scratch state one packer builds up: which shard covers
// which nodes, the per-shard non-constant load, and the chosen shard per
// root.
type packing struct {
	member    [][]bool
	load      []int // non-constant covered nodes per shard
	rootShard []int
}

func newPacking(n, k, nroots int) *packing {
	p := &packing{
		member:    make([][]bool, k),
		load:      make([]int, k),
		rootShard: make([]int, nroots),
	}
	for s := range p.member {
		p.member[s] = make([]bool, n)
		// The constants live in every shard (local ids 0 and 1). They are
		// not counted toward load: they are replicated up front regardless
		// of assignment, and counting them skewed the greedy cost on small
		// shards (a pure-overlap placement must win ties).
		p.member[s][0] = true
		p.member[s][1] = true
	}
	return p
}

// cover marks id as covered by shard s, counting non-constant first
// covers toward the shard's load.
func (p *packing) cover(s int, id bog.NodeID) {
	if p.member[s][id] {
		return
	}
	p.member[s][id] = true
	if id > 1 {
		p.load[s]++
	}
}

// place assigns root ri to shard s, covering its cone and its endpoint's
// Q node (a register endpoint's Q rides along so the subgraph's endpoint
// list round-trips; it is a source, its arrival is static and identical
// in every shard that holds it).
func (p *packing) place(g *bog.Graph, roots []root, ri, s int) {
	p.rootShard[ri] = s
	for _, id := range roots[ri].cone {
		p.cover(s, id)
	}
	if r := &roots[ri]; r.ep >= 0 {
		if q := g.Endpoints[r.ep].Q; q != bog.Nil {
			p.cover(s, q)
		}
	}
}

// marginal counts the cone nodes of root ri not yet covered by shard s.
func (p *packing) marginal(roots []root, ri, s int) int {
	marg := 0
	m := p.member[s]
	for _, id := range roots[ri].cone {
		if !m[id] {
			marg++
		}
	}
	return marg
}

// totalLoad sums the per-shard non-constant loads (the replication
// numerator).
func (p *packing) totalLoad() int {
	t := 0
	for _, l := range p.load {
		t += l
	}
	return t
}

func (p *packing) maxLoad() int {
	m := 0
	for _, l := range p.load {
		if l > m {
			m = l
		}
	}
	return m
}

// bySizeDesc returns root indices ordered by descending cone size, ties
// by ascending root index (stable).
func bySizeDesc(roots []root) []int {
	order := make([]int, len(roots))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(roots[order[a]].cone) > len(roots[order[b]].cone)
	})
	return order
}

// packGreedy is the retained pre-overlap packer (the PR 5 baseline):
// biggest cones first, each onto the shard minimizing load + marginal new
// nodes (ties: lowest shard index). The additive cost balances loads but
// lets a large shard's load drown the overlap signal — a cone fully
// present on a big shard is still sent to a smaller one — which is what
// made it replication-bound on real designs.
func packGreedy(g *bog.Graph, roots []root, n, k int) *packing {
	p := newPacking(n, k, len(roots))
	for _, ri := range bySizeDesc(roots) {
		best, bestCost := 0, int(^uint(0)>>1)
		for s := 0; s < k; s++ {
			if cost := p.load[s] + p.marginal(roots, ri, s); cost < bestCost {
				best, bestCost = s, cost
			}
		}
		p.place(g, roots, ri, best)
	}
	return p
}

// sigOverlap is the overlap coefficient of two source-support bitsets:
// |a ∩ b| / min(|a|, |b|), in [0, 1]. Cones whose support is a subset of
// another's score 1. Empty supports (constant-only cones) are treated as
// universally affine — they cost nothing wherever they land.
func sigOverlap(a, b []uint64, an, bn int) float64 {
	if an == 0 || bn == 0 {
		return 1
	}
	inter := 0
	for w := range a {
		inter += bits.OnesCount64(a[w] & b[w])
	}
	m := an
	if bn < m {
		m = bn
	}
	return float64(inter) / float64(m)
}

// affinityTheta is the clustering threshold of the overlap-aware packer:
// two cone groups whose source supports overlap by at least this
// coefficient are packed consecutively. 0.5 merges cones sharing a
// majority of the smaller support — aggressive enough to pull apart-torn
// cone families together, loose enough that genuinely disjoint logic
// stays in separate clusters.
const affinityTheta = 0.5

// capacitySlack bounds shard imbalance in the overlap-aware packer: a
// shard accepts a cone only while its load stays within slack × (ideal
// per-shard share), unless no shard fits. 1.25 trades a little balance
// for much less replication; the portfolio fallback in New guards the
// pathological cases.
const capacitySlack = 1.25

// packOverlap is the overlap-aware packer. Cones are clustered by fanin
// affinity — exact source-support duplicates collapse first, then leader
// clustering by overlap coefficient groups cones sharing a majority of
// their support — and placed cluster by cluster on the shard where they
// add the fewest new nodes (marginal first, load and shard index only as
// tie-breaks), subject to a capacity bound that keeps shards balanced
// enough to run in parallel. Overlapping cone families therefore land on
// one shard, and replication happens only where the capacity bound forces
// a family apart or where overlap genuinely crosses every grouping.
func packOverlap(g *bog.Graph, roots []root, n, k int) *packing {
	computeSigs(g, roots)

	// Exact-duplicate grouping: roots with identical source support are
	// inseparable — order them consecutively, biggest first. Groups are
	// created in descending-cone-size order, so group order inherits it.
	order := bySizeDesc(roots)
	type group struct {
		sig   []uint64
		sigN  int
		roots []int // member root indices, descending cone size
	}
	var groups []group
	bucket := map[string]int{} // sig bytes → group index
	var keyBuf []byte
	for _, ri := range order {
		keyBuf = keyBuf[:0]
		for _, w := range roots[ri].sig {
			keyBuf = append(keyBuf,
				byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
				byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
		}
		if gi, ok := bucket[string(keyBuf)]; ok {
			groups[gi].roots = append(groups[gi].roots, ri)
			continue
		}
		bucket[string(keyBuf)] = len(groups)
		groups = append(groups, group{sig: roots[ri].sig, sigN: roots[ri].sigN, roots: []int{ri}})
	}

	// Leader clustering: each group joins the best existing cluster whose
	// leader support it overlaps by at least affinityTheta, else founds a
	// new cluster. Comparing against the leader (not a drifting union)
	// keeps clusters tight and the pass deterministic.
	type cluster struct {
		leaderSig  []uint64
		leaderSigN int
		groups     []int
	}
	var clusters []cluster
	for gi := range groups {
		best, bestAff := -1, 0.0
		for ci := range clusters {
			aff := sigOverlap(groups[gi].sig, clusters[ci].leaderSig, groups[gi].sigN, clusters[ci].leaderSigN)
			if aff >= affinityTheta && aff > bestAff {
				best, bestAff = ci, aff
			}
		}
		if best < 0 {
			clusters = append(clusters, cluster{leaderSig: groups[gi].sig, leaderSigN: groups[gi].sigN, groups: []int{gi}})
			continue
		}
		clusters[best].groups = append(clusters[best].groups, gi)
	}

	// Placement: cluster by cluster, cone by cone, onto the shard with the
	// fewest new nodes among those with room; when nothing fits, degrade
	// to the balanced additive cost so oversized cone families still
	// spread. The capacity is the ideal per-shard share with some slack,
	// floored at the largest cluster union: a cone family is a unit of
	// mandatory co-location — splitting one duplicates its shared core
	// onto every piece (the pre-overlap packer's exact failure mode), so
	// the family's whole footprint must fit on one shard even when that
	// costs balance. Zero-marginal placements bypass the capacity check
	// outright: a cone already fully present adds no load anywhere, so
	// pure-overlap placements always win.
	p := newPacking(n, k, len(roots))
	stamp := make([]int32, n)
	maxUnion := 0
	for ci := range clusters {
		epoch := int32(ci + 1)
		union := 0
		for _, gi := range clusters[ci].groups {
			for _, ri := range groups[gi].roots {
				for _, id := range roots[ri].cone {
					if stamp[id] != epoch {
						stamp[id] = epoch
						union++
					}
				}
			}
		}
		if union > maxUnion {
			maxUnion = union
		}
	}
	cap := int(capacitySlack * float64(n) / float64(k))
	if cap < maxUnion {
		cap = maxUnion
	}
	for _, cl := range clusters {
		for _, gi := range cl.groups {
			for _, ri := range groups[gi].roots {
				best, bestMarg, bestLoad := -1, 0, 0
				for s := 0; s < k; s++ {
					marg := p.marginal(roots, ri, s)
					if marg > 0 && p.load[s]+marg > cap {
						continue
					}
					if best < 0 || marg < bestMarg || (marg == bestMarg && p.load[s] < bestLoad) {
						best, bestMarg, bestLoad = s, marg, p.load[s]
					}
				}
				if best < 0 {
					bestCost := int(^uint(0) >> 1)
					for s := 0; s < k; s++ {
						if cost := p.load[s] + p.marginal(roots, ri, s); cost < bestCost {
							best, bestCost = s, cost
						}
					}
				}
				p.place(g, roots, ri, best)
			}
		}
	}
	return p
}

// computeSigs fills each root's source-support signature: a bitset over
// the dense indices of the source nodes (fanin-free, non-constant — the
// registers and primary inputs) appearing in its cone.
func computeSigs(g *bog.Graph, roots []root) {
	n := len(g.Nodes)
	srcOf := make([]int32, n)
	numSrc := 0
	for i := range g.Nodes {
		if i > 1 && g.Nodes[i].NumFanin() == 0 {
			srcOf[i] = int32(numSrc)
			numSrc++
		} else {
			srcOf[i] = -1
		}
	}
	words := (numSrc + 63) / 64
	for ri := range roots {
		sig := make([]uint64, words)
		cnt := 0
		for _, id := range roots[ri].cone {
			if si := srcOf[id]; si >= 0 {
				if w, b := si/64, uint(si%64); sig[w]&(1<<b) == 0 {
					sig[w] |= 1 << b
					cnt++
				}
			}
		}
		roots[ri].sig, roots[ri].sigN = sig, cnt
	}
}

// New partitions g into k shards with the overlap-aware packer, falling
// back to the retained greedy packing whenever that happens to replicate
// less (strictly fewer covered node slots; ties broken toward the smaller
// max shard, then toward the overlap-aware result) — so New is never
// worse than the PR 5 partitioner on any graph. k is clamped to [1,
// number of cone roots]: a shard beyond the root count could only ever
// hold the two constants, so requesting more shards than roots (or an
// absurd count — the per-shard bookkeeping is O(n)) yields the root-count
// partition instead of empty shards. The result is a pure function of
// (g, k).
func New(g *bog.Graph, k int) (*Partition, error) {
	return build(g, k, func(g *bog.Graph, roots []root, n, kk int) *packing {
		ov := packOverlap(g, roots, n, kk)
		gr := packGreedy(g, roots, n, kk)
		if gt, ot := gr.totalLoad(), ov.totalLoad(); gt < ot ||
			(gt == ot && gr.maxLoad() < ov.maxLoad()) {
			return gr
		}
		return ov
	})
}

// NewOverlap partitions g into k shards with the overlap-aware packer
// alone (no greedy fallback) — the pure policy the benchmark pair
// measures against NewGreedy. Same clamping and determinism contract as
// New.
func NewOverlap(g *bog.Graph, k int) (*Partition, error) {
	return build(g, k, packOverlap)
}

// NewGreedy partitions g into k shards with the pre-overlap greedy packer
// (biggest cones first onto the shard minimizing load + marginal new
// nodes, constants counted nowhere). It is retained as the replication
// baseline the benchmarks and the overlap-aware property tests compare
// against. Same clamping and determinism contract as New.
func NewGreedy(g *bog.Graph, k int) (*Partition, error) {
	return build(g, k, packGreedy)
}

// build runs the shared partitioning pipeline: roots and cones, the
// chosen packer, then ownership accounting and shard materialization.
func build(g *bog.Graph, k int, pack func(*bog.Graph, []root, int, int) *packing) (*Partition, error) {
	if k < 1 {
		k = 1
	}
	n := len(g.Nodes)
	p := &Partition{G: g, owner: make([]int32, n)}
	for i := range p.owner {
		p.owner[i] = unowned // set on first cover below
	}

	roots := computeRoots(g)
	switch {
	case len(roots) == 0:
		k = 1
	case k > len(roots):
		k = len(roots)
	}
	p.K = k

	pk := pack(g, roots, n, k)

	// Ownership from the final membership: first-cover owns, second cover
	// shares. The constants are in every shard; with several shards they
	// are never exclusively owned.
	for s := 0; s < k; s++ {
		for i := 0; i < n; i++ {
			if !pk.member[s][i] {
				continue
			}
			if p.owner[i] == unowned {
				p.owner[i] = int32(s)
			} else if p.owner[i] != int32(s) {
				p.owner[i] = Shared
			}
		}
	}

	// Materialize shards: node sets ascending, endpoints ascending.
	p.Shards = make([]Shard, k)
	for i := 0; i < n; i++ {
		for s := 0; s < k; s++ {
			if pk.member[s][i] {
				p.Shards[s].Nodes = append(p.Shards[s].Nodes, bog.NodeID(i))
			}
		}
	}
	for ri := range roots {
		if ep := roots[ri].ep; ep >= 0 {
			p.Shards[pk.rootShard[ri]].Endpoints = append(p.Shards[pk.rootShard[ri]].Endpoints, ep)
		}
	}
	for s := 0; s < k; s++ {
		sort.Ints(p.Shards[s].Endpoints)
		sub, err := bog.Subgraph(g, p.Shards[s].Nodes, p.Shards[s].Endpoints)
		if err != nil {
			return nil, err
		}
		p.Shards[s].Graph = sub
	}
	return p, nil
}
