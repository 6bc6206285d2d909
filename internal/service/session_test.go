// Session-lifecycle coverage (the hygiene satellite): the -max-sessions
// cap rejects with a clear 400, idle sessions reap through the injected
// clock, /stats Sessions drops after a reap, reaping releases the
// session's derived-entry reference, and in-flight sessions are never
// reaped out from under a request.
package service

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"rtltimer/internal/designs"
	"rtltimer/internal/engine"
)

// fakeClock is the injectable time seam: tests advance it explicitly, so
// reaping is deterministic and never sleeps.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func openSession(t *testing.T, svc *Service, bench string) *SessionState {
	t.Helper()
	st, err := svc.SessionOpen(context.Background(), SessionOpenRequest{
		Design: DesignRef{Bench: bench}, Variant: "SOG",
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSessionCapEnforced: the -max-sessions rejection is a 400 whose
// message names the cap and the way out, and closing a session frees a
// slot immediately.
func TestSessionCapEnforced(t *testing.T) {
	name := benchNames(t, 1)[0]
	svc := newService(t, Config{Jobs: 2, MaxSessions: 2})

	first := openSession(t, svc, name)
	openSession(t, svc, name)
	_, err := svc.SessionOpen(context.Background(), SessionOpenRequest{
		Design: DesignRef{Bench: name}, Variant: "SOG",
	})
	if err == nil {
		t.Fatal("third open succeeded past MaxSessions=2")
	}
	if errorStatus(err) != http.StatusBadRequest {
		t.Fatalf("cap rejection maps to %d, want 400", errorStatus(err))
	}
	for _, want := range []string{"session table full", "-max-sessions", "cap 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("cap rejection %q does not mention %q", err, want)
		}
	}
	if err := svc.SessionClose(first.Session); err != nil {
		t.Fatal(err)
	}
	openSession(t, svc, name)
}

// TestSessionIdleReap drives retention entirely through the fake clock:
// a session idle past the TTL reaps (dropping /stats Sessions and
// releasing the head reference — the derived-entry leak regression), a
// fresh one survives, and an in-flight one is immune until released.
func TestSessionIdleReap(t *testing.T) {
	name := benchNames(t, 1)[0]
	clk := newFakeClock()
	// ReapInterval is huge so the background janitor never interferes;
	// the test calls ReapIdleSessions at chosen clock positions.
	svc := newService(t, Config{
		Jobs: 2, SessionTTL: time.Minute, ReapInterval: time.Hour, Clock: clk.Now,
	})

	idle := openSession(t, svc, name)
	if got := svc.Stats().Sessions; got != 1 {
		t.Fatalf("Sessions = %d, want 1", got)
	}
	// Keep the raw session pointer so the head release is observable
	// after the table forgets the id.
	svc.mu.Lock()
	raw := svc.sessions[idle.Session]
	svc.mu.Unlock()
	if raw == nil || raw.head == nil {
		t.Fatal("open session has no head")
	}

	// Under the TTL: nothing reaps.
	clk.Advance(30 * time.Second)
	if n := svc.ReapIdleSessions(); n != 0 {
		t.Fatalf("reaped %d sessions under the TTL", n)
	}

	// A session touched recently survives the sweep that takes the idle one.
	clk.Advance(45 * time.Second) // idle is now 75s old
	fresh := openSession(t, svc, name)
	if n := svc.ReapIdleSessions(); n != 1 {
		t.Fatalf("reaped %d sessions, want exactly the idle one", n)
	}
	if got := svc.Stats().Sessions; got != 1 {
		t.Fatalf("Sessions = %d after reap, want 1", got)
	}
	if raw.head != nil {
		t.Fatal("reap did not release the session's derived-entry reference")
	}
	if _, err := svc.SessionEval(context.Background(), SessionEvalRequest{Session: idle.Session, Period: 0.5}); err == nil || errorStatus(err) != http.StatusBadRequest {
		t.Fatalf("reaped session still answers: %v", err)
	}
	if _, err := svc.SessionEval(context.Background(), SessionEvalRequest{Session: fresh.Session, Period: 0.5}); err != nil {
		t.Fatalf("fresh session was damaged by the reap: %v", err)
	}

	// An in-flight session cannot reap, however stale its clock: the
	// acquire is exactly what a request holds across its critical section.
	sess, release, err := svc.acquireSession(fresh.Session)
	if err != nil || sess == nil {
		t.Fatal(err)
	}
	clk.Advance(time.Hour)
	if n := svc.ReapIdleSessions(); n != 0 {
		t.Fatalf("reaped %d sessions while one was in flight", n)
	}
	release()
	// The release touched lastUse, so it needs to go idle again first.
	clk.Advance(2 * time.Minute)
	if n := svc.ReapIdleSessions(); n != 1 {
		t.Fatalf("reaped %d sessions after release, want 1", n)
	}
	if got := svc.Stats().Sessions; got != 0 {
		t.Fatalf("Sessions = %d, want 0", got)
	}
}

// TestSessionReaperGoroutine: the background janitor itself (real clock,
// short TTL) empties the table without any explicit reap call, and Close
// is idempotent.
func TestSessionReaperGoroutine(t *testing.T) {
	name := benchNames(t, 1)[0]
	svc := newService(t, Config{Jobs: 2, SessionTTL: 50 * time.Millisecond})
	openSession(t, svc, name)
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Sessions != 0 {
		if time.Now().After(deadline) {
			t.Fatal("janitor never reaped the idle session")
		}
		time.Sleep(10 * time.Millisecond)
	}
	svc.Close()
	svc.Close() // idempotent
}

// TestSessionOpenResolvesOneVariant: an open resolves only the variant
// its session edits. On a fresh service it makes exactly one build, and
// after Engine.Reset over a cache directory exactly one disk hit and no
// build.
func TestSessionOpenResolvesOneVariant(t *testing.T) {
	name := benchNames(t, 1)[0]
	svc := newService(t, Config{Jobs: 2, CacheDir: t.TempDir()})
	openSession(t, svc, name)
	if st := svc.Engine().Stats(); st.Builds != 1 || st.DiskHits != 0 {
		t.Fatalf("cold open: stats %+v, want exactly 1 build", st)
	}
	svc.Engine().Reset()
	openSession(t, svc, name)
	if st := svc.Engine().Stats(); st.Builds != 1 || st.DiskHits != 1 {
		t.Fatalf("open after Reset: stats %+v, want exactly 1 disk hit and no new build", st)
	}
}

// TestBenchTagMemo: resolving a built-in benchmark by name returns the
// memoized tag, which must equal engine.DesignTag of the generated source
// for every suite design, on the first request and on a memo hit alike.
func TestBenchTagMemo(t *testing.T) {
	svc := newService(t, Config{Jobs: 1})
	for _, spec := range designs.All() {
		want := engine.DesignTag(spec.Name, designs.Generate(spec))
		for pass := 0; pass < 2; pass++ {
			d, err := svc.resolve(DesignRef{Bench: spec.Name})
			if err != nil {
				t.Fatal(err)
			}
			if d.tag != want {
				t.Fatalf("%s pass %d: tag %q, want %q", spec.Name, pass, d.tag, want)
			}
		}
	}
	if n := len(designs.All()); len(svc.bench) != n {
		t.Fatalf("memo holds %d entries, want %d", len(svc.bench), n)
	}
}
