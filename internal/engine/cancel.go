// Cancellation-safe single-flight and panic containment: the survivability
// layer the resident rtltimerd daemon forced onto the request path (the
// same hardening discipline the fault-tolerant store applied to the disk
// tier). Two invariants, both load-bearing for a service that must hold
// warm state for weeks:
//
//   - A canceled caller never poisons a cache slot. Waiting on a
//     single-flight resolution is cancelable (EvalRepCtx / EditCtx honor
//     their context), but the resolution itself always runs detached to
//     completion: builds are deterministic and cached, so finishing a
//     build whose initiator hung up is strictly cheaper than abandoning
//     it and re-leading later, and every follower that stayed gets the
//     result. Canceled callers get context.Canceled /
//     context.DeadlineExceeded (counted in Stats.Canceled /
//     Stats.DeadlineExpired) and the slot settles exactly as if nobody
//     had hung up — no duplicate builds, no errored slot, no leak.
//
//   - A panic fails one query, not the process. Worker-pool tasks
//     (ForEach / ForEachErr) and detached build bodies recover panics
//     into typed *PanicError values carrying the panicking goroutine's
//     stack. ForEachErr propagates the PanicError as the fan-out error;
//     ForEach re-raises it on the caller (where the caller's own recovery
//     — a detached resolution, an http.Server handler wrapper — can
//     contain it) instead of crashing the process from an anonymous
//     goroutine. A panicked slot settles as errored and is dropped, so
//     the key retries on the next call per the standing error-slot rule.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError is a panic recovered at an engine containment point: the
// panicking task's value and stack, shaped as an error so it flows through
// the normal failure paths (errored slots, fan-out errors, HTTP 500s)
// instead of killing the process.
type PanicError struct {
	Value any    // the value passed to panic()
	Stack []byte // the panicking goroutine's stack at recovery
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("engine: recovered panic: %v", p.Value)
}

// newPanicError wraps a recovered value, passing an already-contained
// *PanicError through unchanged so nested containment points (a worker
// recovery re-raised into a build-body recovery) never double-wrap or
// lose the original stack.
func newPanicError(r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// containPanic is newPanicError plus the Stats.Panics count — exactly one
// count per original panic, however many containment layers it crosses.
func (e *Engine) containPanic(r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	e.panics.Add(1)
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// panicCollector gathers panics recovered from ForEach workers. When
// several tasks panic, the lowest task index wins (mirroring ForEachErr's
// lowest-index error rule) so what the caller observes is independent of
// worker scheduling.
type panicCollector struct {
	eng *Engine
	mu  sync.Mutex
	idx int
	pe  *PanicError
}

// capture is installed with defer by every pool task; it must be the
// deferred function itself so its recover() call is live.
func (c *panicCollector) capture(i int) {
	r := recover()
	if r == nil {
		return
	}
	pe := c.eng.containPanic(r)
	c.mu.Lock()
	if c.pe == nil || i < c.idx {
		c.idx, c.pe = i, pe
	}
	c.mu.Unlock()
}

// rethrow re-raises the winning contained panic on the caller after the
// fan-out joined — the one place a ForEach panic may surface, and always
// as a *PanicError a downstream containment point can absorb.
func (c *panicCollector) rethrow() {
	if c.pe != nil {
		panic(c.pe)
	}
}

// callContained runs one fallible task with its panics converted to a
// *PanicError return, so a panicking build or dataset row fails its
// fan-out instead of the process.
func (e *Engine) callContained(i int, fn func(int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = e.containPanic(r)
		}
	}()
	return fn(i)
}

// resolveDetached starts a slot's one resolution on a detached goroutine.
// Only the caller that created the slot (entry reported !existed) calls
// it, so every later caller, hit or follower, allocates no build closure.
// The goroutine — not the first caller — owns the build, which is what
// makes waiting cancelable without making the resolution abortable: a
// caller that gives up (EvalRepCtx / EditCtx deadline or cancel) simply
// stops waiting, while the build runs to completion, settles the slot
// (budget charge on success, slot removal on error — see settleResolved)
// and wakes every waiter that stayed. Panics in the build body are
// contained into the slot's error.
func (e *Engine) resolveDetached(key Key, ent *repEntry, build func() (*RepResult, error)) {
	go func() {
		defer close(ent.done)
		func() {
			defer func() {
				if r := recover(); r != nil {
					ent.err = e.containPanic(r)
				}
			}()
			ent.res, ent.err = build()
		}()
		if ent.err != nil {
			ent.res = nil
		}
		e.settleResolved(key, ent)
	}()
}

// await blocks until the slot resolves or the context is done, whichever
// comes first. A context that fires while the result is already resolved
// still returns the result — cancellation never discards an answer that
// is sitting there. Hits are counted here, by the waiting caller, so a
// canceled wait and an errored slot are never recorded as cache hits.
func (e *Engine) await(ctx context.Context, ent *repEntry, existed bool) (*RepResult, error) {
	select {
	case <-ent.done:
	default:
		select {
		case <-ent.done:
		case <-ctx.Done():
			select {
			case <-ent.done:
				// Resolved in the same instant: prefer the result.
			default:
				if errors.Is(ctx.Err(), context.DeadlineExceeded) {
					e.deadlineExpired.Add(1)
				} else {
					e.canceled.Add(1)
				}
				return nil, ctx.Err()
			}
		}
	}
	if existed && ent.err == nil {
		e.hits.Add(1)
	}
	return ent.res, ent.err
}

// Entries is the memory tier's slot census: live settled entries (these
// hold results and are charged to the memory budget) and pending in-flight
// resolutions. Leak checks — the chaos harness, session-lifecycle tests —
// assert pending drains to zero and live matches exactly the retained
// entry count after a storm of cancellations, panics and shed load.
func (e *Engine) Entries() (live, pending int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ent := range e.reps {
		if ent.live {
			live++
		} else {
			pending++
		}
	}
	return live, pending
}
