// FaultStore: a deterministic fault injector between the engine and a
// real Store, existing purely so the torture suite (torture_test.go) can
// drive every failure point of the cache fabric on purpose — torn writes,
// read EIO, rename failures, bit flips in flight and at rest, injected
// latency — and prove the engine never panics, never serves a
// non-bit-identical result, and always degrades to a rebuild. It is
// test code: nothing in the engine constructs one.
package engine

import (
	"sync"
	"syscall"
	"time"
)

// FaultEvery is the wildcard ordinal of a FaultPlan map: a fault keyed on
// FaultEvery fires on every operation that has no exact-ordinal entry.
const FaultEvery = -1

// InjectedFault is the error type FaultStore returns for planned
// failures. It unwraps to an errno the way a real device's error does:
// EIO when IsTransient, which RetryStore's classifier retries, and EROFS
// otherwise, which it passes through, so one plan can model both a glitch
// that a retry heals and a persistently failing device.
type InjectedFault struct {
	Op          string // "get", "put"
	Ordinal     int
	IsTransient bool
}

func (f *InjectedFault) Error() string {
	kind := "permanent"
	if f.IsTransient {
		kind = "transient"
	}
	return "engine: injected " + kind + " " + f.Op + " fault"
}

// Unwrap returns the errno TransientErr classifies the fault by.
func (f *InjectedFault) Unwrap() error {
	if f.IsTransient {
		return syscall.EIO
	}
	return syscall.EROFS
}

// FaultPlan is a deterministic fault schedule. Every map is keyed by the
// per-operation ordinal (Gets and Puts are counted separately, from 0, in
// the order the store executes them); the FaultEvery key applies to all
// ordinals without an exact entry. With a serial caller (jobs=1) the
// ordinals — and therefore the whole failure history — are fully
// reproducible; concurrent torture runs use FaultEvery schedules, whose
// behavior is ordinal-independent.
type FaultPlan struct {
	// GetErr fails the matching Get with the given transience; no data is
	// returned. Models EIO on the Nth read.
	GetErr map[int]bool
	// GetFlipBit flips the given bit of the matching Get's payload —
	// corruption on the read path (bad cable, bad RAM), while the entry
	// at rest stays valid.
	GetFlipBit map[int]int
	// PutErr fails the matching Put with the given transience; nothing is
	// written. Models a rename failure.
	PutErr map[int]bool
	// PutTruncate persists only the first k bytes of the matching Put's
	// payload and reports success — a torn write made visible, as after a
	// crash between write and fsync on a non-syncing store.
	PutTruncate map[int]int
	// PutFlipBit flips the given bit of the matching Put's payload and
	// reports success — silent corruption at rest.
	PutFlipBit map[int]int
	// OpDelay stalls every operation by a fixed duration — injected
	// latency (slow NFS, contended disk). Purely a scheduling
	// perturbation; results must be unaffected.
	OpDelay time.Duration
}

// lookup resolves the fault for one ordinal: an exact entry wins, then
// the FaultEvery wildcard.
func lookup[V any](m map[int]V, ordinal int) (V, bool) {
	if v, ok := m[ordinal]; ok {
		return v, true
	}
	v, ok := m[FaultEvery]
	return v, ok
}

// FaultStore wraps Inner with the faults planned in Plan. The zero Plan
// injects nothing. Configure before use; the ordinal counters are
// internally locked, so concurrent engine fan-outs are safe (their
// ordinal assignment follows the store's execution order).
type FaultStore struct {
	Inner Store
	Plan  FaultPlan

	mu         sync.Mutex
	gets, puts int
}

// NewFaultStore wraps inner with plan.
func NewFaultStore(inner Store, plan FaultPlan) *FaultStore {
	return &FaultStore{Inner: inner, Plan: plan}
}

// Ops reports how many Gets and Puts the store has executed — test
// bookkeeping for ordinal-sensitive plans.
func (s *FaultStore) Ops() (gets, puts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets, s.puts
}

func (s *FaultStore) delay() {
	if s.Plan.OpDelay > 0 {
		time.Sleep(s.Plan.OpDelay)
	}
}

func (s *FaultStore) Get(name string) ([]byte, error) {
	s.mu.Lock()
	ord := s.gets
	s.gets++
	s.mu.Unlock()
	s.delay()
	if transient, ok := lookup(s.Plan.GetErr, ord); ok {
		return nil, &InjectedFault{Op: "get", Ordinal: ord, IsTransient: transient}
	}
	data, err := s.Inner.Get(name)
	if err != nil {
		return nil, err
	}
	if bit, ok := lookup(s.Plan.GetFlipBit, ord); ok && len(data) > 0 {
		data = flipBit(data, bit)
	}
	return data, nil
}

func (s *FaultStore) Put(name string, payload []byte) error {
	s.mu.Lock()
	ord := s.puts
	s.puts++
	s.mu.Unlock()
	s.delay()
	if transient, ok := lookup(s.Plan.PutErr, ord); ok {
		return &InjectedFault{Op: "put", Ordinal: ord, IsTransient: transient}
	}
	if k, ok := lookup(s.Plan.PutTruncate, ord); ok {
		if k > len(payload) {
			k = len(payload)
		}
		// The torn prefix is renamed into place and reported as a
		// success: the writer moves on believing the entry landed, and
		// only a later reader can discover the damage.
		return s.Inner.Put(name, payload[:k])
	}
	if bit, ok := lookup(s.Plan.PutFlipBit, ord); ok && len(payload) > 0 {
		payload = flipBit(payload, bit)
	}
	return s.Inner.Put(name, payload)
}

func (s *FaultStore) List() ([]string, error) {
	s.delay()
	return s.Inner.List()
}

func (s *FaultStore) Delete(name string) error {
	s.delay()
	return s.Inner.Delete(name)
}

// flipBit returns a copy of data with bit i (modulo the payload size)
// inverted: every plan value lands inside the payload, so a schedule
// written for one entry size stays valid for all of them.
func flipBit(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	n := len(out) * 8
	i %= n
	if i < 0 {
		i += n
	}
	out[i/8] ^= 1 << (i % 8)
	return out
}
