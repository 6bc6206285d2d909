// Tests for the survivability layer (cancel.go): cancellation-safe
// single-flight waits that never poison or duplicate a build, and panic
// containment that fails one query instead of the process. All invariants
// here are load-bearing for the resident rtltimerd daemon and run under
// -race in CI.
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rtltimer/internal/bog"
	"rtltimer/internal/elab"
	"rtltimer/internal/liberty"
)

// blockingSource returns a DesignSource that blocks until release is
// closed, plus the release func — the seam that lets a test hold a build
// in flight while it cancels waiters around it.
func blockingSource(d *elab.Design) (src DesignSource, release func(), started <-chan struct{}) {
	gate := make(chan struct{})
	start := make(chan struct{})
	var once sync.Once
	return func() (*elab.Design, error) {
			once.Do(func() { close(start) })
			<-gate
			return d, nil
		}, func() {
			close(gate)
		}, start
}

// TestCanceledWaiterDoesNotPoisonSlot is the tentpole invariant: a caller
// that cancels mid-build gets context.Canceled, but the build it initiated
// runs detached to completion and settles the slot — the next caller gets
// the finished result as a hit of the one and only build, bit-identical to
// a never-canceled run.
func TestCanceledWaiterDoesNotPoisonSlot(t *testing.T) {
	d, srcText := buildDesign(t)
	lib := liberty.DefaultPseudoLib()
	key := Key{Design: DesignTag(d.Name, srcText), Variant: bog.AIG}

	clean := New(1)
	want, err := clean.EvalRep(key, lib, FixedDesign(d))
	if err != nil {
		t.Fatal(err)
	}

	e := New(4)
	src, release, started := blockingSource(d)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.EvalRepCtx(ctx, key, lib, src)
		errc <- err
	}()
	<-started // the detached build is now in flight
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v, want context.Canceled", err)
	}

	// The initiator is gone; the build must finish anyway and the slot
	// settle. A fresh caller blocks on the same resolution and gets the
	// result — no rebuild, no errored slot.
	release()
	rr, err := e.EvalRep(key, lib, src)
	if err != nil {
		t.Fatalf("post-cancel caller: %v (canceled waiter poisoned the slot)", err)
	}
	for i := range want.Arrival {
		if rr.Arrival[i] != want.Arrival[i] {
			t.Fatalf("arrival[%d] differs from a never-canceled build", i)
		}
	}
	st := e.Stats()
	if st.Builds != 1 {
		t.Fatalf("stats %+v, want exactly 1 build (cancellation must not re-lead)", st)
	}
	if st.Canceled != 1 {
		t.Fatalf("stats %+v, want Canceled == 1", st)
	}
	if st.Hits != 1 {
		t.Fatalf("stats %+v, want the post-cancel caller counted as the only hit", st)
	}
	if live, pending := e.Entries(); live != 1 || pending != 0 {
		t.Fatalf("slot census live=%d pending=%d, want 1 settled slot and nothing in flight", live, pending)
	}
}

// TestDeadlineExpiredWait: a deadline that fires mid-build returns
// DeadlineExceeded and counts in Stats.DeadlineExpired — and, exactly as
// with cancellation, the detached build completes and serves later
// callers from the one build.
func TestDeadlineExpiredWait(t *testing.T) {
	d, srcText := buildDesign(t)
	lib := liberty.DefaultPseudoLib()
	key := Key{Design: DesignTag(d.Name, srcText), Variant: bog.SOG}

	e := New(4)
	src, release, started := blockingSource(d)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := e.EvalRepCtx(ctx, key, lib, src)
		errc <- err
	}()
	<-started
	if err := <-errc; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter got %v, want context.DeadlineExceeded", err)
	}
	release()
	if _, err := e.EvalRep(key, lib, src); err != nil {
		t.Fatalf("post-deadline caller: %v", err)
	}
	st := e.Stats()
	if st.Builds != 1 || st.DeadlineExpired != 1 || st.Canceled != 0 {
		t.Fatalf("stats %+v, want 1 build, 1 DeadlineExpired, 0 Canceled", st)
	}
}

// TestWarmSlotIgnoresDeadCtx: a context that is already done never
// discards an answer that is sitting there — a warm slot serves its
// result (and counts the hit) even to a canceled caller.
func TestWarmSlotIgnoresDeadCtx(t *testing.T) {
	d, srcText := buildDesign(t)
	lib := liberty.DefaultPseudoLib()
	key := Key{Design: DesignTag(d.Name, srcText), Variant: bog.AIG}

	e := New(1)
	want, err := e.EvalRep(key, lib, FixedDesign(d))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rr, err := e.EvalRepCtx(ctx, key, lib, FixedDesign(d))
	if err != nil {
		t.Fatalf("warm slot refused a canceled caller: %v", err)
	}
	if rr != want {
		t.Fatal("warm slot returned a different result to the canceled caller")
	}
	if st := e.Stats(); st.Hits != 1 || st.Canceled != 0 {
		t.Fatalf("stats %+v, want a plain hit and no cancellation counted", st)
	}
}

// TestCanceledEditNeverDuplicatesDerivation: EditCtx with a dead context
// may or may not return the result (the derivation races the canceled
// wait), but in every outcome the derivation runs detached exactly once
// and a follow-up Edit serves it from the slot.
func TestCanceledEditNeverDuplicatesDerivation(t *testing.T) {
	d, srcText := buildDesign(t)
	lib := liberty.DefaultPseudoLib()
	e := New(1)
	rr, err := e.EvalRep(Key{Design: DesignTag(d.Name, srcText), Variant: bog.SOG}, lib, FixedDesign(d))
	if err != nil {
		t.Fatal(err)
	}
	var delta bog.Delta
	for i, n := range rr.Graph.Nodes {
		if n.Op == bog.And {
			delta = bog.Delta{bog.SetOpEdit(bog.NodeID(i), bog.Or)}
			break
		}
	}
	if delta == nil {
		t.Fatal("no AND node to edit")
	}

	want, err := rr.Edit(delta)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := rr.EditCtx(ctx, delta); err != nil {
		// The canceled wait lost the race: acceptable, but it must be the
		// context error, and the derivation must still be the cached one.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled EditCtx returned %v", err)
		}
	} else if res != want {
		t.Fatal("canceled EditCtx returned a different derivation")
	}
	got, err := rr.Edit(delta)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("follow-up Edit did not serve the cached derivation")
	}
	if st := e.Stats(); st.Edits != 1 {
		t.Fatalf("stats %+v, want exactly 1 derivation (cancellation must not duplicate edits)", st)
	}
}

// TestBuildPanicContained: a panicking design source (one bad graph) fails
// its own query with a typed *PanicError, the slot drops per the standing
// error-slot rule so the key retries, and the engine keeps serving — the
// daemon-survivability contract for internal faults.
func TestBuildPanicContained(t *testing.T) {
	d, srcText := buildDesign(t)
	lib := liberty.DefaultPseudoLib()
	key := Key{Design: DesignTag(d.Name, srcText), Variant: bog.AIG}

	for _, jobs := range []int{1, 8} {
		e := New(jobs)
		calls := 0
		src := func() (*elab.Design, error) {
			calls++
			if calls == 1 {
				panic("engine test: injected build panic")
			}
			return d, nil
		}
		_, err := e.EvalRep(key, lib, src)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("jobs=%d: panicking build returned %v, want *PanicError", jobs, err)
		}
		if !strings.Contains(pe.Error(), "injected build panic") {
			t.Fatalf("jobs=%d: PanicError lost the panic value: %v", jobs, pe)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("jobs=%d: PanicError carries no stack", jobs)
		}
		// The slot dropped; the retry rebuilds and succeeds.
		if _, err := e.EvalRep(key, lib, src); err != nil {
			t.Fatalf("jobs=%d: retry after panic: %v (panicked slot poisoned the key)", jobs, err)
		}
		st := e.Stats()
		if st.Builds != 2 || st.Panics != 1 || st.Hits != 0 {
			t.Fatalf("jobs=%d: stats %+v, want 2 build attempts, 1 panic, 0 hits", jobs, st)
		}
	}
}

// TestForEachPanicContained: pool workers recover panics instead of
// crashing the process; after the fan-out joins, the lowest-index panic is
// re-raised on the caller as a *PanicError — deterministic under any
// worker scheduling, mirroring ForEachErr's lowest-index error rule.
func TestForEachPanicContained(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		e := New(jobs)
		var ran [16]bool
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					var pe *PanicError
					if !errors.As(newPanicError(r), &pe) {
						t.Fatalf("jobs=%d: re-raised value %v is not a *PanicError", jobs, r)
					}
					err = pe
				}
			}()
			e.ForEach(len(ran), func(i int) {
				ran[i] = true
				if i%5 == 3 { // tasks 3, 8, 13 panic
					panic(fmt.Sprintf("task %d", i))
				}
			})
			return nil
		}()
		if err == nil {
			t.Fatalf("jobs=%d: panicking fan-out did not re-raise", jobs)
		}
		if !strings.Contains(err.Error(), "task 3") {
			t.Fatalf("jobs=%d: re-raised %v, want the lowest-index panic (task 3)", jobs, err)
		}
		for i, r := range ran {
			if !r {
				t.Fatalf("jobs=%d: task %d never ran (a panic must not skip siblings)", jobs, i)
			}
		}
		if st := e.Stats(); st.Panics != 3 {
			t.Fatalf("jobs=%d: stats %+v, want all 3 panics counted", jobs, st)
		}
	}
}

// TestForEachErrPanicAsError is the satellite regression: a panicking
// fallible task — the shape of a build hitting a corrupt graph —
// becomes that task's error and fails the query through the normal error
// path, never re-raising, and the engine serves real work afterwards.
func TestForEachErrPanicAsError(t *testing.T) {
	d, srcText := buildDesign(t)
	lib := liberty.DefaultPseudoLib()

	for _, jobs := range []int{1, 8} {
		e := New(jobs)
		err := e.ForEachErr(8, func(i int) error {
			if i == 2 {
				panic("engine test: task panic")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("jobs=%d: ForEachErr returned %v, want *PanicError", jobs, err)
		}
		if st := e.Stats(); st.Panics != 1 {
			t.Fatalf("jobs=%d: stats %+v, want exactly 1 panic counted", jobs, st)
		}
		// The engine is not degraded: a real build on the same pool
		// succeeds and matches a clean engine bit-for-bit.
		key := Key{Design: DesignTag(d.Name, srcText), Variant: bog.AIG}
		rr, err := e.EvalRep(key, lib, FixedDesign(d))
		if err != nil {
			t.Fatalf("jobs=%d: engine stopped serving after a contained panic: %v", jobs, err)
		}
		want, err := New(1).EvalRep(key, lib, FixedDesign(d))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Arrival {
			if rr.Arrival[i] != want.Arrival[i] {
				t.Fatalf("jobs=%d: post-panic build diverged at arrival[%d]", jobs, i)
			}
		}
	}
}
