package engine

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"
)

// TestDirStoreRoundTrip: Put/Get/List/Delete over a directory, including
// nested names and the not-exist contract.
func TestDirStoreRoundTrip(t *testing.T) {
	s := NewDirStore(filepath.Join(t.TempDir(), "cache"))
	if _, err := s.Get("missing.rep"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Get on missing entry: %v, want fs.ErrNotExist", err)
	}
	if names, err := s.List(); err != nil || len(names) != 0 {
		t.Fatalf("List of missing root: %v, %v, want empty", names, err)
	}
	entries := map[string][]byte{
		"b.rep":            []byte("bravo"),
		"a.rep":            []byte("alpha"),
		"quarantine/c.rep": []byte("charlie"),
		"quarantine/d.rep": nil,
		"nested/e2.rep":    []byte("x"),
	}
	for name, payload := range entries {
		if err := s.Put(name, payload); err != nil {
			t.Fatalf("Put(%s): %v", name, err)
		}
	}
	for name, payload := range entries {
		got, err := s.Get(name)
		if err != nil {
			t.Fatalf("Get(%s): %v", name, err)
		}
		if string(got) != string(payload) {
			t.Fatalf("Get(%s) = %q, want %q", name, got, payload)
		}
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a.rep", "b.rep", "nested/e2.rep", "quarantine/c.rep", "quarantine/d.rep"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("List = %v, want %v", names, want)
	}
	if err := s.Delete("a.rep"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a.rep"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Delete of missing entry: %v, want fs.ErrNotExist", err)
	}
	if _, err := s.Get("a.rep"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Get after Delete: %v, want fs.ErrNotExist", err)
	}
}

// TestDirStoreEntryMode: CreateTemp makes temp files 0600; the published
// entry must be world-readable so a cache directory shared between users
// serves hits, not permission errors.
func TestDirStoreEntryMode(t *testing.T) {
	dir := t.TempDir()
	for _, sync := range []bool{false, true} {
		s := &DirStore{Dir: dir, Sync: sync}
		name := "mode.rep"
		if err := s.Put(name, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := info.Mode().Perm(); got != entryFileMode {
			t.Fatalf("sync=%v: entry mode %o, want %o", sync, got, entryFileMode)
		}
	}
}

// TestDirStorePutAtomic: a Put over an existing entry leaves either the old
// or the new payload visible, and never a temp file behind.
func TestDirStorePutAtomic(t *testing.T) {
	dir := t.TempDir()
	s := NewDirStore(dir)
	if err := s.Put("x.rep", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("x.rep", []byte("new-and-longer")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("x.rep")
	if err != nil || string(got) != "new-and-longer" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	temps, err := filepath.Glob(filepath.Join(dir, ".rep-*"))
	if err != nil || len(temps) != 0 {
		t.Fatalf("leftover temp files after Put: %v (%v)", temps, err)
	}
}

// TestRetryStoreHealsTransient: transient inner failures are retried on the
// fixed schedule and the operation succeeds; the recorded waits match the
// schedule exactly (determinism: no jitter, no entropy).
func TestRetryStoreHealsTransient(t *testing.T) {
	inner := NewDirStore(t.TempDir())
	if err := inner.Put("x.rep", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	faulty := NewFaultStore(inner, FaultPlan{
		GetErr: map[int]bool{0: true, 1: true}, // two transient glitches, then clean
	})
	var waits []time.Duration
	s := &RetryStore{Inner: faulty, Sleep: func(d time.Duration) { waits = append(waits, d) }}
	got, err := s.Get("x.rep")
	if err != nil || string(got) != "payload" {
		t.Fatalf("Get = %q, %v, want healed payload", got, err)
	}
	if !reflect.DeepEqual(waits, retrySchedule[:2]) {
		t.Fatalf("retry waits %v, want schedule prefix %v", waits, retrySchedule[:2])
	}
}

// TestRetryStorePermanentNotRetried: a permanent error passes through on
// the first attempt — no waits, no extra inner operations.
func TestRetryStorePermanentNotRetried(t *testing.T) {
	inner := NewDirStore(t.TempDir())
	faulty := NewFaultStore(inner, FaultPlan{
		GetErr: map[int]bool{FaultEvery: false}, // permanent on every get
	})
	s := &RetryStore{Inner: faulty, Sleep: func(time.Duration) { t.Fatal("permanent error slept") }}
	if _, err := s.Get("x.rep"); err == nil {
		t.Fatal("expected the permanent error through")
	}
	if gets, _ := faulty.Ops(); gets != 1 {
		t.Fatalf("permanent error retried: %d gets, want 1", gets)
	}
}

// TestRetryStoreExhaustsSchedule: a persistently transient error is
// retried once per schedule slot, then surfaces.
func TestRetryStoreExhaustsSchedule(t *testing.T) {
	inner := NewDirStore(t.TempDir())
	faulty := NewFaultStore(inner, FaultPlan{PutErr: map[int]bool{FaultEvery: true}})
	var waits int
	s := &RetryStore{Inner: faulty, Sleep: func(time.Duration) { waits++ }}
	err := s.Put("x.rep", []byte("p"))
	var inj *InjectedFault
	if !errors.As(err, &inj) {
		t.Fatalf("Put error %v, want the injected fault", err)
	}
	if waits != len(retrySchedule) {
		t.Fatalf("%d waits, want the full schedule (%d)", waits, len(retrySchedule))
	}
	if _, puts := faulty.Ops(); puts != len(retrySchedule)+1 {
		t.Fatalf("%d puts, want initial + %d retries", puts, len(retrySchedule))
	}
}

// TestTransientErrClassification: errors are classified by the errno they
// wrap alone, so an injected fault is transient exactly when it unwraps to
// EIO, as a real device's error is.
func TestTransientErrClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{&InjectedFault{Op: "get", IsTransient: true}, true},
		{&InjectedFault{Op: "get"}, false},
		{fmt.Errorf("wrapped: %w", &InjectedFault{Op: "put", IsTransient: true}), true},
		{syscall.EROFS, false},
		{syscall.EIO, true},
		{syscall.EINTR, true},
		{syscall.EAGAIN, true},
		{&os.PathError{Op: "read", Path: "x", Err: syscall.EIO}, true},
		{fs.ErrNotExist, false},
		{fs.ErrPermission, false},
		{errors.New("opaque"), false},
	}
	for _, c := range cases {
		if got := TransientErr(c.err); got != c.want {
			t.Fatalf("TransientErr(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestFaultStoreTornWrite: a planned truncation persists a prefix and
// reports success — the reader, not the writer, discovers the damage.
func TestFaultStoreTornWrite(t *testing.T) {
	inner := NewDirStore(t.TempDir())
	s := NewFaultStore(inner, FaultPlan{PutTruncate: map[int]int{0: 5}})
	if err := s.Put("x.rep", []byte("full-payload")); err != nil {
		t.Fatalf("torn write must report success, got %v", err)
	}
	got, err := inner.Get("x.rep")
	if err != nil || string(got) != "full-" {
		t.Fatalf("persisted %q, %v, want the 5-byte prefix", got, err)
	}
}

// TestFaultStoreBitFlips: read-path and at-rest corruption, and the
// exact-ordinal-over-wildcard resolution rule.
func TestFaultStoreBitFlips(t *testing.T) {
	inner := NewDirStore(t.TempDir())
	s := NewFaultStore(inner, FaultPlan{GetFlipBit: map[int]int{1: 0}})
	if err := s.Put("x.rep", []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("x.rep"); err != nil || got[0] != 0x00 {
		t.Fatalf("get ordinal 0 corrupted: %v, %v", got, err)
	}
	if got, err := s.Get("x.rep"); err != nil || got[0] != 0x01 {
		t.Fatalf("get ordinal 1 not flipped: %v, %v", got, err)
	}
	// At rest: the flipped payload is what lands in the inner store.
	s2 := NewFaultStore(inner, FaultPlan{PutFlipBit: map[int]int{FaultEvery: 7}})
	if err := s2.Put("y.rep", []byte{0x00}); err != nil {
		t.Fatal(err)
	}
	if got, err := inner.Get("y.rep"); err != nil || got[0] != 0x80 {
		t.Fatalf("at-rest payload %v, %v, want bit 7 flipped", got, err)
	}
	// Exact ordinal entry overrides the wildcard.
	s3 := NewFaultStore(inner, FaultPlan{GetErr: map[int]bool{FaultEvery: true, 0: false}})
	_, err := s3.Get("y.rep")
	var inj *InjectedFault
	if !errors.As(err, &inj) || inj.IsTransient {
		t.Fatalf("ordinal 0: %v, want the exact (permanent) entry over the wildcard", err)
	}
	if _, err := s3.Get("y.rep"); !TransientErr(err) {
		t.Fatalf("ordinal 1: %v, want the transient wildcard", err)
	}
}

// TestSetCacheDirComposition: SetCacheDir wires RetryStore over DirStore;
// SetCacheStore(nil) disables the disk tier entirely.
func TestSetCacheDirComposition(t *testing.T) {
	e := New(1)
	e.SetCacheDir(t.TempDir())
	rs, ok := e.store.(*RetryStore)
	if !ok {
		t.Fatalf("SetCacheDir installed %T, want *RetryStore", e.store)
	}
	if _, ok := rs.Inner.(*DirStore); !ok {
		t.Fatalf("RetryStore wraps %T, want *DirStore", rs.Inner)
	}
	e.SetCacheStore(nil)
	if e.store != nil || e.CacheDir() != "" {
		t.Fatal("SetCacheStore(nil) must disable the disk tier")
	}
}
