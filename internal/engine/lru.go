// Memory-budget LRU eviction over the in-memory representation tier: the
// first real eviction policy, forced by the resident rtltimerd daemon
// (ROADMAP item 1). A one-shot CLI run can let the memory tier grow
// monotonically — the process exits before it matters — but a service
// holding one Engine resident for days must bound what it pins.
//
// The policy is deliberately simple and deterministic:
//
//   - every settled cache entry is charged an approximate resident cost
//     derived from its graph and vector sizes (approxEntryCost — an
//     estimate, not an accounting of Go heap bytes: the budget bounds
//     growth, it does not meter the allocator);
//   - every lookup (hit or miss) stamps the slot with a monotone
//     last-touch sequence number under the engine mutex;
//   - whenever the outstanding charge exceeds the budget, settled entries
//     are evicted least-recently-touched first (no two slots share a
//     sequence number) until the cache fits. The entry that just settled is
//     exempt from its own settlement's eviction pass, so progress is
//     guaranteed even under a budget smaller than one entry.
//
// Eviction never invalidates results: callers (and daemon sessions) hold
// their own references, evicted base entries reload from the disk tier or
// rebuild, and every path is bit-identical by the engine's standing
// contract. Eviction order is a pure function of the touch history, so a
// serial access pattern evicts identically on every run (asserted by
// tests); Stats.Evictions counts each evicted entry.
package engine

// SetMemBudget caps the approximate resident bytes of settled memory-tier
// entries; 0 (the default) disables eviction. Shrinking the budget below
// the current charge evicts immediately. Safe to call at any time, but
// typically set once at service start, before the engine is shared.
func (e *Engine) SetMemBudget(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	e.mu.Lock()
	e.memBudget = bytes
	e.evictOverBudgetLocked(nil)
	e.mu.Unlock()
}

// MemBudget returns the configured memory budget (0 = unlimited).
func (e *Engine) MemBudget() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.memBudget
}

// MemUsed returns the approximate resident bytes currently charged to the
// memory tier (the sum of approxEntryCost over settled entries).
func (e *Engine) MemUsed() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.memUsed
}

// approxEntryCost estimates the resident footprint of one settled entry
// from its graph and vector sizes: the node table (op, fanin, signal
// coordinates, padding), the four per-node float64 vectors the analyzer
// and cache hold (arrival, load, slew, delay), the fanout vector,
// per-endpoint extractor state, and the signal-name table. A
// disk-restored analyzer's static vectors and a lazy extractor's state
// are charged whether or not they have been built yet, so the charge —
// and with it the eviction order — never depends on which entries a
// caller timed or read features from. A derived entry owns exactly these: its graph clone
// and the vectors of the analyzer its session edited. The consumer
// adjacency an edited base builds on its first edit (~4 B per edge and
// 8 B per node, shared by every entry derived from it) and each derived
// entry's small overlay of changed lists go uncharged, so edits move
// neither the eviction order nor the budget. The constants are struct-size
// approximations, not heap accounting; what matters for the budget is
// that cost scales with the design, so evicting one Rocket3 frees
// ~hundreds of small designs' worth.
func approxEntryCost(res *RepResult) int64 {
	if res == nil || res.Graph == nil {
		return 1
	}
	const (
		perNode     = 24 + 4*8 + 4 // node struct + 4 f64 vectors + fanout
		perEndpoint = 3*4 + 8 + 48 // cone state + rank percentile + endpoint struct
		perEntry    = 1 << 10      // fixed overhead: analyzer, extractor, headers
	)
	c := int64(len(res.Graph.Nodes))*perNode + int64(len(res.Graph.Endpoints))*perEndpoint + perEntry
	for _, s := range res.Graph.SigNames {
		c += int64(len(s)) + 16
	}
	return c
}

// evictOverBudgetLocked evicts settled entries least-recently-touched
// first until the outstanding charge fits the budget. keep, when non-nil,
// is the entry whose settlement triggered the pass and is never evicted by
// it — it is by definition the hottest entry, and exempting it guarantees
// progress under any budget. Callers hold e.mu.
//
// The victim is unique, so map order cannot pick it: every slot is created
// by entry, which stamps it with a fresh touchSeq under e.mu, and each
// later lookup restamps only the one slot it touches, so no two slots
// ever share a seq.
func (e *Engine) evictOverBudgetLocked(keep *repEntry) {
	for e.memBudget > 0 && e.memUsed > e.memBudget {
		var victimKey Key
		var victim *repEntry
		for k, ent := range e.reps {
			if !ent.live || ent == keep {
				continue
			}
			if victim == nil || ent.seq < victim.seq {
				victimKey, victim = k, ent
			}
		}
		if victim == nil {
			return
		}
		e.removeLocked(victimKey, victim)
	}
}
