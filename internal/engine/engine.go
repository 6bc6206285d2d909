// Package engine is the concurrent evaluation engine of the repository:
// every workload that fans out over designs, BOG representations or
// cross-validation folds runs through one Engine, which provides
//
//   - a bounded, work-conserving worker pool (ForEach / ForEachErr)
//     shared across nesting levels: the caller and the pool goroutines it
//     starts each keep taking the next unstarted task until none remain,
//     so a fan-out of unequal tasks (the four variants of one design)
//     keeps every worker busy; an inner fan-out running inside a pooled
//     task falls back to inline execution instead of deadlocking or
//     oversubscribing, so the total concurrency stays at the configured
//     jobs count, and at jobs=1 every task runs inline in index order;
//   - a two-tier representation cache keyed on (design, variant) with
//     single-flight semantics: EvalRep consults memory first, then (when a
//     cache directory is configured with SetCacheDir) a content-addressed
//     on-disk store, and only then builds from scratch — the first caller
//     resolves the entry, everyone else blocks on that resolution and
//     shares the immutable result.
//
// The cache key is period-free because arrival times are period-free: only
// slack depends on the clock, so a clock-period query (fmax, WNS-vs-period
// curves) pays one bit-blast and one forward pass per
// (design, variant) and materializes each period with RepResult.At, which
// costs only the endpoint slack loop. The disk tier makes that one-time
// cost survive the process: a warm run deserializes the graph and the
// arrival vector instead of bit-blasting and re-running the forward pass.
// Its analyzer rebuilds its static load/slew/delay state from the graph
// only when a caller first needs it, and its extractor walks the endpoint
// cones only when a feature is first read; a timing query
// (RepResult.Summary, CriticalPeriod) does neither (see diskcache.go for
// the entry format).
//
// Determinism is a hard requirement (tests assert byte-identical results
// at jobs=1 and jobs=8, and warm disk loads against cold builds): tasks
// write only to their own index of caller-provided slices, every random
// component is seeded per task, and each build runs one serial forward
// pass inside one pool task. Every edit derives one way: clone,
// incremental re-time, snapshot.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"rtltimer/internal/bog"
	"rtltimer/internal/elab"
	"rtltimer/internal/features"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
	"rtltimer/internal/verilog"
)

// Key identifies one cached representation evaluation. It is period-free:
// everything the cache holds (graph, analyzer, arrival vector, extractor)
// is independent of the clock period, and period-dependent views are
// materialized per call with RepResult.At.
type Key struct {
	// Design identifies the design, including its source text (see
	// DesignTag): two designs that happen to share a name must not share
	// cache entries.
	Design  string
	Variant bog.Variant
	// Edit is the delta-digest chain of a derived evaluation ("" for base
	// builds; see EditKey). Derived entries share their base's Design
	// verbatim, so Retain follows the base with plain equality and no
	// in-band delimiter exists for a design name to collide with.
	Edit string
}

// DesignTag builds a collision-resistant cache identity for a design from
// its name and source text. The digest is SHA-256: the tag is the design
// component of *persistent* on-disk cache keys shared across runs and
// corpora, where a 64-bit non-cryptographic hash would be too weak an
// identity.
func DesignTag(name, source string) string {
	return fmt.Sprintf("%s#%x", name, sha256.Sum256([]byte(source)))
}

// DesignSource lazily supplies the elaborated design for a cache miss.
// EvalRep only invokes it when neither the memory tier nor the disk tier
// has the entry, so warm callers never pay parsing or elaboration.
type DesignSource func() (*elab.Design, error)

// FixedDesign adapts an already-elaborated design to a DesignSource.
func FixedDesign(d *elab.Design) DesignSource {
	return func() (*elab.Design, error) { return d, nil }
}

// LazyDesign returns a DesignSource that parses and elaborates Verilog
// text at most once, sharing the result (or error) across all EvalRep
// calls it backs — safe for the engine's concurrent per-variant fan-out.
// On a fully warm cache the frontend never runs at all.
func LazyDesign(src string) DesignSource {
	var (
		once sync.Once
		d    *elab.Design
		err  error
	)
	return func() (*elab.Design, error) {
		once.Do(func() {
			var parsed *verilog.Source
			if parsed, err = verilog.Parse(src); err == nil {
				d, err = elab.Elaborate(parsed)
			}
		})
		return d, err
	}
}

// RepResult is one design's evaluation under one BOG representation: the
// specialized graph, its levelized analyzer, the period-free arrival
// vector (one forward pass, shared by every period) with its digest, and
// the feature extractor. All fields are immutable and shared between
// cache users (the extractor materializes its per-endpoint state once, on
// the first read by any user, and a disk-restored analyzer its static
// state on its first At or Edit). Period-dependent views come from Summary
// (WNS and TNS only, allocation-free) or At (per-endpoint vectors too);
// edited variants of the design are derived (and cached) with Edit.
type RepResult struct {
	Graph   *bog.Graph
	An      *sta.Analyzer
	Arrival []float64
	// ArrivalSHA256 is ArrivalDigest(Arrival), computed once when the
	// engine builds or derives the result so queries that report the
	// fingerprint never re-hash the vector. Disk entries persist it, so a
	// disk load restores it without hashing; -cache-scrub recomputes it.
	ArrivalSHA256 string
	// Ext is the feature extractor. Every result, built, derived or
	// loaded, carries a lazy one (features.NewLazyExtractor, made by
	// newResult) that takes its timing view (At at period 0), counts the
	// cells and walks the endpoint cones only when a feature is first
	// read, which the timing queries never do.
	Ext *features.Extractor

	// eng/key tie the result back to its cache slot so Edit can register
	// delta-derived descendants under delta-derived keys. Results built
	// outside an engine (nil eng) still support Edit, uncached.
	eng *Engine
	key Key
}

// Key returns the cache identity the result is registered under: the
// base (design, variant) key, with the EditKey digest chain of every
// delta that derived it. A result made outside an engine, or Detached,
// has the zero Key.
func (rr *RepResult) Key() Key { return rr.key }

// Sharded always returns false: no result carries a shard partition. It
// stays only because perfbench still calls it, and goes once ROADMAP item
// 2's benchmark PR stops that.
func (rr *RepResult) Sharded() bool { return false }

// Detached returns a copy of the result severed from its engine cache
// slot: Edit on the copy always recomputes instead of hitting the
// delta-keyed memory tier, so benchmarks can measure the real derivation
// cost per call.
func (rr *RepResult) Detached() *RepResult {
	cp := *rr
	cp.eng = nil
	cp.key = Key{}
	return &cp
}

// At materializes the pseudo-STA result for one clock period from the
// cached arrival vector. Only the endpoint slack loop runs; the result is
// bit-identical to a from-scratch Analyze at that period. It allocates
// the per-endpoint arrival and slack vectors; use Summary when only WNS
// and TNS are needed.
func (rr *RepResult) At(period float64) *sta.Result {
	return rr.An.At(rr.Arrival, period)
}

// Summary returns WNS and TNS at one clock period from the cached arrival
// vector without allocating, bit-identical to At(period).WNS and .TNS.
func (rr *RepResult) Summary(period float64) (wns, tns float64) {
	return rr.An.Summary(rr.Arrival, period)
}

// ArrivalDigest is the bit-identity fingerprint of an arrival vector: the
// hex SHA-256 over the little-endian IEEE-754 bits of every entry, so two
// vectors share a digest iff every arrival time is bit-identical. The
// bits are encoded a fixed-size chunk at a time and each chunk is hashed
// with one Write.
func ArrivalDigest(arrival []float64) string {
	h := sha256.New()
	var buf [4096]byte
	for len(arrival) > 0 {
		n := min(len(arrival), len(buf)/8)
		for i, a := range arrival[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(a))
		}
		h.Write(buf[:8*n])
		arrival = arrival[n:]
	}
	return hex.EncodeToString(h.Sum(nil))
}

// EditKey derives the cache identity of a delta-edited evaluation: the
// base key with the SHA-256 of the delta's canonical encoding appended to
// its Edit chain. Chained edits chain digests, so every distinct edit
// history has a distinct key and a warm session replaying the same delta
// hits the same slot.
func EditKey(base Key, delta bog.Delta) Key {
	sum := sha256.Sum256(delta.AppendBinary(nil))
	return Key{
		Design:  base.Design,
		Variant: base.Variant,
		Edit:    base.Edit + hex.EncodeToString(sum[:]),
	}
}

// Edit returns this representation with the graph delta applied: the base
// graph is cloned, the delta applied through an incremental STA session
// opened on the base analyzer's shared consumer adjacency (re-timing only
// the affected cone — no bit-blast, no full forward pass, no adjacency
// rebuild), and the analyzer the session edited becomes the analyzer of
// a fresh immutable RepResult, with a lazy extractor of the edited graph
// that walks no cone and counts no cell unless a feature is read. What an
// edit still pays per node is the graph clone and one copy of the five
// per-node timing vectors; the rest costs the cone, the overlay of
// consumer lists the chain has changed, and the arrival fingerprint.
// Derived results are cached in the engine's memory tier under EditKey
// with the usual single-flight semantics, so concurrent callers of the
// same (base, delta) share one derivation, and further Edits may chain
// off the result, each hop sharing the chain root's adjacency.
//
// Derived entries are deliberately not persisted to the disk tier: their
// key records the base design tag plus the delta digest, so a warm
// session that restored the base entry from disk rebases — it replays the
// delta incrementally, which costs the affected cone rather than a full
// build — instead of deserializing a second full copy of an almost
// identical graph.
func (rr *RepResult) Edit(delta bog.Delta) (*RepResult, error) {
	return rr.EditCtx(context.Background(), delta)
}

// EditCtx is Edit with a cancelable wait: the derivation itself always
// runs detached to completion (see cancel.go — a canceled waiter never
// poisons or duplicates the cached derivation), but the caller stops
// waiting when ctx is done and gets ctx.Err().
func (rr *RepResult) EditCtx(ctx context.Context, delta bog.Delta) (*RepResult, error) {
	if len(delta) == 0 {
		return rr, nil
	}
	if rr.eng == nil {
		return rr.deriveContained(delta)
	}
	return rr.eng.resolveEdit(ctx, EditKey(rr.key, delta), rr, delta)
}

// deriveContained is the engine-less Edit path (results detached from any
// cache via Detached) with the same panic containment the engine's resolver
// applies: a panicking incremental re-time fails this call, not the
// process.
func (rr *RepResult) deriveContained(delta bog.Delta) (res *RepResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(r)
		}
	}()
	return rr.derive(delta, Key{}, nil)
}

// entry returns the single-flight slot for a key — the one lookup path
// shared by base builds (EvalRep) and delta derivations (resolveEdit) —
// reporting whether the slot already existed, and stamping the slot's
// last-touch sequence number for the memory-budget LRU (lru.go). Hits are
// counted by the waiter after resolution (await, cancel.go), so a slot
// that resolved to an error — or a wait that was canceled — is never
// recorded as a cache hit.
func (e *Engine) entry(key Key) (ent *repEntry, existed bool) {
	e.mu.Lock()
	ent, existed = e.reps[key]
	if !existed {
		ent = &repEntry{done: make(chan struct{})}
		e.reps[key] = ent
	}
	e.touchSeq++
	ent.seq = e.touchSeq
	e.mu.Unlock()
	return ent, existed
}

// settleResolved finishes a single-flight resolution; the detached
// resolver goroutine (resolveDetached, cancel.go) invokes it exactly once,
// before waking waiters. An errored slot — including one whose build
// panicked — is removed from the map so the next call for the key retries
// instead of replaying a stale failure; without this, one transient I/O or
// frontend error would poison the key for the engine's (now service-long)
// lifetime. A successful slot is charged to the memory budget and may
// trigger LRU eviction of colder entries (lru.go).
func (e *Engine) settleResolved(key Key, ent *repEntry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent.err != nil {
		if e.reps[key] == ent {
			delete(e.reps, key)
		}
		return
	}
	if !ent.live && e.reps[key] == ent {
		// A successful resolution still present in the map: charge it. A
		// slot dropped mid-build (Reset/Retain) lives only with its
		// callers and owes the budget nothing.
		ent.live = true
		ent.cost = approxEntryCost(ent.res)
		e.memUsed += ent.cost
		e.evictOverBudgetLocked(ent)
	}
}

// resolveEdit is EvalRepCtx's single-flight resolution for delta-derived
// entries (memory tier only; see RepResult.Edit). The derivation runs
// detached like a base build: canceling the wait never cancels — or
// duplicates — the derivation.
func (e *Engine) resolveEdit(ctx context.Context, key Key, base *RepResult, delta bog.Delta) (*RepResult, error) {
	ent, existed := e.entry(key)
	if !existed {
		e.resolveDetached(key, ent, func() (*RepResult, error) {
			e.edits.Add(1)
			return base.derive(delta, key, e)
		})
	}
	return e.await(ctx, ent, existed)
}

// derive computes the edited evaluation from the base: clone, a session
// on the base analyzer (sta.NewIncrementalOn: the session edits a private
// analyzer with copied vectors; the root adjacency is shared and built
// only by a built or disk-restored base's first edit), the cone re-time,
// and a snapshot, which returns that private analyzer itself, since the
// session is discarded. The result gets a fresh lazy extractor of the
// edited graph, so a derivation takes no timing view, walks no cone and
// counts no cell unless a caller reads a feature of the result. It is
// bit-identical to a fresh analysis and extractor of the edited graph;
// the base is never mutated.
func (rr *RepResult) derive(delta bog.Delta, key Key, eng *Engine) (*RepResult, error) {
	g := rr.Graph.Clone()
	inc, err := sta.NewIncrementalOn(rr.An, g, rr.Arrival)
	if err != nil {
		return nil, err
	}
	if _, err := inc.Apply(delta); err != nil {
		return nil, err
	}
	an, arr := inc.Snapshot()
	res := newResult(g, an, arr, ArrivalDigest(arr))
	res.eng, res.key = eng, key
	return res, nil
}

// newResult assembles the result of graph g under analyzer an with the
// period-free arrival vector arr and its fingerprint digest. Builds,
// derives and disk loads all make their results here, each with one lazy
// extractor that reads nothing until a feature is first read.
func newResult(g *bog.Graph, an *sta.Analyzer, arr []float64, digest string) *RepResult {
	return &RepResult{
		Graph:         g,
		An:            an,
		Arrival:       arr,
		ArrivalSHA256: digest,
		Ext:           features.NewLazyExtractor(g, an, arr),
	}
}

type repEntry struct {
	res *RepResult
	err error

	// done is closed by the detached resolver goroutine after the slot has
	// settled (resolveDetached, cancel.go); res and err are written before
	// the close and never after, so waiters that observed the close may
	// read them without a lock.
	done chan struct{}

	// LRU state, all guarded by Engine.mu: seq is the last-touch sequence
	// number (monotone per engine; later touch = hotter), cost the
	// approximate resident bytes charged to the memory budget, live
	// whether that charge is outstanding (set by settleResolved, cleared
	// when the slot leaves the map).
	seq  uint64
	cost int64
	live bool
}

// Stats are cumulative representation-cache counters. Builds counts
// actual graph builds (bit-blast + forward pass); Hits counts EvalRep
// calls served from an existing memory entry (including calls that
// blocked on an in-flight resolution — but never calls that observed an
// errored slot: those slots are removed so the key retries, and sharing a
// failure is not a hit). The disk counters only move when a
// cache directory is configured: DiskHits counts entries restored from
// disk (each one is a build avoided), DiskMisses counts lookups that
// missed the disk tier — including corrupt entries that were quarantined
// — and DiskWrites counts entries persisted.
// Evictions counts memory entries released by Reset or Retain, plus
// entries evicted by the memory-budget LRU (SetMemBudget, lru.go).
// Edits counts delta-derived evaluations computed by RepResult.Edit
// (cache misses on edit keys — repeated Edits with the same delta are
// Hits); an Edit is never a Build, since it clones and incrementally
// re-times instead of bit-blasting. ShardEdits is always 0: no edit
// derives shard-locally. It stays only because perfbench still reads it,
// and goes once ROADMAP item 2's benchmark PR stops that.
//
// The failure counters make degraded paths visible instead of silent:
// DiskErrors counts real I/O failures (read errors other than not-exist,
// failed writes — every one degraded to a rebuild or a cold cache, never
// to a wrong result), and Quarantined counts invalid entries moved to
// quarantine/ — each was detected by checksum or shape validation and
// will never be re-read.
//
// The survivability counters (cancel.go) make daemon-side request
// mortality visible: Canceled counts waits abandoned by caller
// cancellation, DeadlineExpired counts waits abandoned by a deadline —
// in both cases the underlying resolution ran detached to completion, so
// neither implies a lost or duplicated build — and Panics counts panics
// recovered at engine containment points (worker tasks and build bodies),
// each one a query that failed instead of a process that died.
type Stats struct {
	Builds          int64
	Hits            int64
	Edits           int64
	ShardEdits      int64
	DiskHits        int64
	DiskMisses      int64
	DiskWrites      int64
	DiskErrors      int64
	Quarantined     int64
	Evictions       int64
	Canceled        int64
	DeadlineExpired int64
	Panics          int64
}

// Engine is a bounded worker pool with a representation cache. The zero
// value is not usable; construct with New. An Engine is safe for
// concurrent use and is typically shared by one command, daemon or
// experiment suite.
type Engine struct {
	jobs int
	sem  chan struct{} // jobs-1 slots; the caller is the jobs-th worker

	// cacheDir is the on-disk tier's root ("" when the tier is disabled
	// or was configured with SetCacheStore). store is the tier itself;
	// nil = memory only. Both are set once, before the engine is shared
	// between goroutines.
	cacheDir string
	store    Store

	builds      atomic.Int64
	hits        atomic.Int64
	edits       atomic.Int64
	diskHits    atomic.Int64
	diskMisses  atomic.Int64
	diskWrites  atomic.Int64
	diskErrors  atomic.Int64
	quarantined atomic.Int64
	evictions   atomic.Int64

	canceled        atomic.Int64
	deadlineExpired atomic.Int64
	panics          atomic.Int64

	mu   sync.Mutex
	reps map[Key]*repEntry

	// Memory-budget LRU state (lru.go), guarded by mu: memBudget is the
	// approximate resident-byte cap over settled entries (0 = unlimited),
	// memUsed the outstanding charge, touchSeq the monotone last-touch
	// clock behind the deterministic eviction order.
	memBudget int64
	memUsed   int64
	touchSeq  uint64
}

// New returns an engine running at most jobs tasks concurrently.
// jobs < 1 selects runtime.GOMAXPROCS(0). With jobs == 1 every task runs
// inline on the caller, in submission order.
func New(jobs int) *Engine {
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		jobs: jobs,
		sem:  make(chan struct{}, jobs-1),
		reps: map[Key]*repEntry{},
	}
}

// ValidateConcurrency checks the user-facing jobs knob shared by the CLIs
// and the daemon: it accepts 0 (all cores) but rejects negative values,
// which would otherwise be silently coerced.
func ValidateConcurrency(jobs int) error {
	if jobs < 0 {
		return fmt.Errorf("jobs must be >= 0 (0 = all cores), got %d", jobs)
	}
	return nil
}

// Jobs returns the engine's concurrency bound.
func (e *Engine) Jobs() int { return e.jobs }

// SetCacheDir enables the persistent on-disk representation tier rooted at
// dir: a RetryStore (deterministic bounded backoff for transient I/O
// errors) over a DirStore (atomic temp+rename writes). It touches no file:
// the directory is created lazily on the first write, and temp files
// orphaned by killed writers stay until a ScrubCache reclaims them. Entries
// are advisory — corrupt or truncated files are quarantined and rebuilt,
// and an entry of another format version is rebuilt over — so pointing
// several processes at one directory is safe: each builds what it misses,
// and a duplicate build publishes the same bytes. Call before the engine
// is shared between goroutines.
func (e *Engine) SetCacheDir(dir string) {
	e.cacheDir = dir
	if dir == "" {
		e.store = nil
		return
	}
	e.store = NewRetryStore(NewDirStore(dir))
}

// SetCacheStore points the disk tier at an explicit Store composition —
// a DirStore with fsync, or a fault-injecting stack under test — instead
// of the default RetryStore-over-DirStore that SetCacheDir builds. nil
// disables the tier. Call before the engine is shared between goroutines.
func (e *Engine) SetCacheStore(s Store) {
	e.store = s
	if s == nil {
		e.cacheDir = ""
	}
}

// CacheDir returns the on-disk tier's root ("" when disabled or when the
// tier was configured with an explicit SetCacheStore).
func (e *Engine) CacheDir() string { return e.cacheDir }

// SetShards does nothing: every edit derives on the full graph. It stays
// only because perfbench still calls it, and goes once ROADMAP item 2's
// benchmark PR stops that.
func (e *Engine) SetShards(int) {}

// ForEach runs fn(0) … fn(n-1) on the bounded pool and waits for all of
// them. Workers pull: the caller and every pool goroutine it starts take
// the next unstarted index from one per-call counter until none remain,
// so no worker idles while a task is still waiting, whatever the tasks
// cost. For each index it takes, the caller first hands it to a new pool
// goroutine if a slot is free and otherwise runs it inline. Hence:
//
//   - at most jobs tasks run at once: jobs-1 pool slots plus the caller;
//   - a nested ForEach finds the slots its outer level holds taken and
//     runs inline, so nesting cannot deadlock or oversubscribe;
//   - at jobs=1 every task runs inline, in index order.
//
// fn must confine its writes to per-index data; results are then the same
// for every jobs value.
//
// A panicking task no longer kills the process from an anonymous pool
// goroutine: panics are recovered into *PanicError (cancel.go), the
// fan-out still joins completely, and the lowest-index panic is re-raised
// on the caller — where the caller's own containment (a detached
// resolution, ForEachErr, an HTTP handler wrapper) can absorb it.
func (e *Engine) ForEach(n int, fn func(i int)) {
	f := &fanOut{sem: e.sem, fn: fn, n: n, pc: panicCollector{eng: e}}
	for i := f.take(); i < n; i = f.take() {
		select {
		case e.sem <- struct{}{}:
			f.wg.Add(1)
			go f.help(i)
		default:
			f.run(i)
		}
	}
	f.wg.Wait()
	f.pc.rethrow()
}

// fanOut is one ForEach call: the engine's slots, the shared counter its
// workers take indices from, the join and the panic collector.
type fanOut struct {
	sem  chan struct{}
	fn   func(int)
	n    int
	next atomic.Int64 // the lowest index no worker has taken yet
	wg   sync.WaitGroup
	pc   panicCollector
}

// take claims the next unstarted index; n or more means none remain.
func (f *fanOut) take() int { return int(f.next.Add(1) - 1) }

// run executes task i with its panic contained.
func (f *fanOut) run(i int) {
	defer f.pc.capture(i)
	f.fn(i)
}

// help is a pool goroutine's body: it runs task i, then keeps taking
// indices until none remain, and frees its slot on the way out.
func (f *fanOut) help(i int) {
	defer f.wg.Done()
	defer func() { <-f.sem }()
	for ; i < f.n; i = f.take() {
		f.run(i)
	}
}

// ForEachErr is ForEach for fallible tasks, on the same pulling workers
// and bounds: once any task fails, tasks that have not started yet are
// skipped (in-flight tasks finish), and the lowest-index error among the
// tasks that ran is returned. A panicking task is contained into a
// *PanicError and competes as that task's error — ForEachErr never
// re-raises.
func (e *Engine) ForEachErr(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var failed atomic.Bool
	e.ForEach(n, func(i int) {
		if failed.Load() {
			return
		}
		if err := e.callContained(i, fn); err != nil {
			errs[i] = err
			failed.Store(true)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// EvalRep resolves (once per key) the period-free representation
// evaluation for a design: the variant graph, its levelized analyzer, the
// arrival vector from one forward pass, and the feature extractor.
// Resolution consults the memory tier, then the on-disk tier (when a
// cache directory is configured), and only then invokes src and builds
// from scratch — so warm callers skip parsing, elaboration, bit-blasting
// and the forward max-plus pass entirely. Concurrent callers with the
// same key share one resolution; clock periods are applied afterwards
// with RepResult.At. The library participates in the disk key via its
// fingerprint but not in the memory key: all callers evaluate under the
// one pseudo library (liberty.DefaultPseudoLib), so a given key must
// always be paired with the same lib within a process.
func (e *Engine) EvalRep(key Key, lib *liberty.PseudoLib, src DesignSource) (*RepResult, error) {
	return e.EvalRepCtx(context.Background(), key, lib, src)
}

// EvalRepCtx is EvalRep with a cancelable wait. The resolution itself
// always runs detached to completion (see cancel.go): builds are
// deterministic and cached, so finishing a build whose initiator hung up
// is strictly cheaper than abandoning it, and a canceled waiter never
// poisons the slot or duplicates the build. When ctx fires first the
// caller gets ctx.Err() (counted in Stats.Canceled / DeadlineExpired); a
// later call for the same key finds the settled slot and is a plain hit.
func (e *Engine) EvalRepCtx(ctx context.Context, key Key, lib *liberty.PseudoLib, src DesignSource) (*RepResult, error) {
	// Only base keys are accepted: derived evaluations are reached
	// through RepResult.Edit, never built from source. Silently accepting
	// an Edit-carrying key would build a *base* result and register it
	// under a derived key, corrupting the edit-chain invariant (a derived
	// key must always name the base plus its replayed deltas).
	if key.Edit != "" {
		return nil, fmt.Errorf("engine: EvalRep requires a base key (Edit == \"\"), got edit chain %q; derive edited evaluations with RepResult.Edit", key.Edit)
	}
	ent, existed := e.entry(key)
	if !existed {
		e.resolveDetached(key, ent, func() (*RepResult, error) {
			return e.buildRep(key, lib, src)
		})
	}
	return e.await(ctx, ent, existed)
}

// buildRep is the single-flight resolution body behind EvalRepCtx: a disk
// load, otherwise the from-scratch build — frontend, bit-blast, one serial
// forward pass, a lazy extractor — and its disk publish. It runs on the
// detached resolver goroutine, at most once per slot; the engine's
// parallelism comes from fanning builds out across pool workers.
func (e *Engine) buildRep(key Key, lib *liberty.PseudoLib, src DesignSource) (*RepResult, error) {
	if e.store != nil {
		if res, ok := e.diskLoad(key, lib); ok {
			e.diskHits.Add(1)
			return e.adopt(res, key), nil
		}
		e.diskMisses.Add(1)
	}
	e.builds.Add(1)
	d, err := src()
	if err != nil {
		return nil, err
	}
	g, err := bog.Build(d, key.Variant)
	if err != nil {
		return nil, err
	}
	an := sta.NewAnalyzer(g, lib)
	arr := an.Arrivals(1)
	res := e.adopt(newResult(g, an, arr, ArrivalDigest(arr)), key)
	if e.store != nil && e.diskStore(key, lib, res) {
		e.diskWrites.Add(1)
	}
	return res, nil
}

// adopt binds a built or disk-restored result to this engine: the
// back-references delta derivation uses to cache what it derives.
func (e *Engine) adopt(res *RepResult, key Key) *RepResult {
	res.eng, res.key = e, key
	return res
}

// Stats returns the cumulative cache counters. Counters survive Reset and
// Retain so sweeps can assert build counts across cache lifecycle events.
func (e *Engine) Stats() Stats {
	return Stats{
		Builds:      e.builds.Load(),
		Hits:        e.hits.Load(),
		Edits:       e.edits.Load(),
		DiskHits:    e.diskHits.Load(),
		DiskMisses:  e.diskMisses.Load(),
		DiskWrites:  e.diskWrites.Load(),
		DiskErrors:  e.diskErrors.Load(),
		Quarantined: e.quarantined.Load(),
		Evictions:   e.evictions.Load(),

		Canceled:        e.canceled.Load(),
		DeadlineExpired: e.deadlineExpired.Load(),
		Panics:          e.panics.Load(),
	}
}

// Reset drops every cached representation (frees the graphs).
func (e *Engine) Reset() {
	e.mu.Lock()
	e.evictions.Add(int64(len(e.reps)))
	for _, ent := range e.reps {
		ent.live = false
	}
	e.reps = map[Key]*repEntry{}
	e.memUsed = 0
	e.mu.Unlock()
}

// Retain drops every cached representation whose design tag is not in
// keep, releasing e.g. a training corpus's graphs while the target
// design's entries stay warm. Delta-derived entries follow their base
// design: retaining a design keeps its edited variants too. Dropping an
// entry that is still being built is harmless: its builders hold their
// own reference and complete normally; the cache just forgets the result.
func (e *Engine) Retain(keep ...string) {
	keepSet := make(map[string]bool, len(keep))
	for _, k := range keep {
		keepSet[k] = true
	}
	e.mu.Lock()
	for k, ent := range e.reps {
		if !keepSet[k.Design] {
			e.removeLocked(k, ent)
		}
	}
	e.mu.Unlock()
}

// removeLocked drops one slot from the memory tier, refunding its budget
// charge. Callers hold e.mu.
func (e *Engine) removeLocked(k Key, ent *repEntry) {
	if ent.live {
		e.memUsed -= ent.cost
		ent.live = false
	}
	delete(e.reps, k)
	e.evictions.Add(1)
}
