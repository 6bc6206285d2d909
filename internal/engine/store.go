// The byte-level substrate of the disk tier: a small Store interface
// between the cache logic (content addressing, entry codecs, quarantine —
// diskcache.go) and the actual I/O, so the failure model of the
// cache fabric is explicit and injectable instead of being whatever the
// filesystem happens to do.
//
// Two layered implementations exist:
//
//   - DirStore: a directory of entries with atomic temp+rename writes
//     (optionally fsync'ing the entry and its directory before/after the
//     rename, for caches that must survive power loss, not just process
//     crashes);
//   - RetryStore: deterministic bounded retry with a fixed backoff
//     schedule for transient I/O errors (EIO, EINTR, EAGAIN, ...) — no
//     entropy, no jitter, so retried runs stay reproducible and the
//     nondeterm lint analyzer stays clean.
//
// The torture suite adds a third in its test files: FaultStore
// (faultstore_test.go), a deterministic fault injector it drives through
// every failure point.
//
// SetCacheDir wraps DirStore in RetryStore; SetCacheStore accepts any
// composition (including future remote/object-store tiers behind the same
// four methods — the ROADMAP distribution substrate).
package engine

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// Store is the disk tier's I/O interface. Entry names are slash-separated
// relative paths ("<digest>.rep", "quarantine/<digest>-<crc>.rep");
// implementations map them to whatever addressing their backend has. All
// methods must be safe for concurrent use by multiple goroutines and — for
// shared-directory backends — multiple processes.
type Store interface {
	// Get returns the full contents of the named entry. A missing entry
	// returns an error satisfying errors.Is(err, fs.ErrNotExist); any
	// other error is a real I/O failure the caller may count and surface.
	Get(name string) ([]byte, error)
	// Put atomically replaces the named entry with payload: concurrent
	// readers observe either the previous entry or the full new one,
	// never a prefix.
	Put(name string, payload []byte) error
	// List returns the names of all entries (recursively, slash
	// separated), sorted.
	List() ([]string, error)
	// Delete removes the named entry. Deleting a missing entry returns
	// an error satisfying errors.Is(err, fs.ErrNotExist).
	Delete(name string) error
}

// entryFileMode is the permission bits entries are given before the
// rename. os.CreateTemp creates temp files 0600, which would make a cache
// directory shared between users serve permission errors instead of hits;
// entries are world-readable like any other build artifact.
const entryFileMode = 0o644

// DirStore is a Store over one directory: entries are files, writes are
// temp+rename (readers never observe a partial entry), names may contain
// "/" (subdirectories are created on demand).
type DirStore struct {
	// Dir is the root directory. It is created on the first write.
	Dir string
	// Sync, when set, fsyncs the temp file before the rename and the
	// parent directory after it, so a renamed entry survives power loss
	// and not just a process crash. Off by default: the cache is
	// advisory, and a torn entry is detected by checksum and quarantined
	// on the next read — Sync buys durability, not correctness.
	Sync bool
}

// NewDirStore returns a DirStore rooted at dir (no fsync).
func NewDirStore(dir string) *DirStore { return &DirStore{Dir: dir} }

func (s *DirStore) path(name string) string {
	return filepath.Join(s.Dir, filepath.FromSlash(name))
}

// Get reads one entry whole.
func (s *DirStore) Get(name string) ([]byte, error) {
	return os.ReadFile(s.path(name))
}

// Put writes payload to a temp file in the destination directory, makes
// it world-readable, optionally fsyncs, and renames it into place. The
// temp name starts with tempPrefix, the one the scrub reclaims after a
// crash.
func (s *DirStore) Put(name string, payload []byte) error {
	path := s.path(name)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, tempPrefix+"*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(payload)
	if werr == nil {
		// CreateTemp made the file 0600; entries in a shared cache
		// directory must be readable by every cooperating user.
		werr = tmp.Chmod(entryFileMode)
	}
	if werr == nil && s.Sync {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if s.Sync {
		syncDir(dir)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry's name survives
// power loss. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// List walks the store and returns every entry name (slash separated,
// sorted). Temp files are included, and a missing root directory is an
// empty store, not an error.
func (s *DirStore) List() ([]string, error) {
	var names []string
	err := filepath.WalkDir(s.Dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			rel, rerr := filepath.Rel(s.Dir, path)
			if rerr != nil {
				return rerr
			}
			names = append(names, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// Delete removes one entry.
func (s *DirStore) Delete(name string) error {
	return os.Remove(s.path(name))
}

// retrySchedule is RetryStore's backoff schedule: fixed, bounded,
// entropy-free. Three retries spaced ~geometrically cover the transient
// window of a loaded filesystem (interrupted syscalls, momentary EIO
// under memory pressure, descriptor exhaustion while another worker's
// fan-out peaks) without stalling a genuinely broken store for more than
// ~21ms per operation.
var retrySchedule = []time.Duration{
	1 * time.Millisecond,
	4 * time.Millisecond,
	16 * time.Millisecond,
}

// RetryStore wraps a Store with deterministic bounded retry for transient
// errors. Permanent errors (not-exist, permission, corruption surfaced as
// decode failures above this layer) pass through immediately.
type RetryStore struct {
	Inner Store
	// Sleep is the wait hook; nil selects time.Sleep. Tests substitute a
	// recorder so retry behavior is asserted without wall-clock waits.
	Sleep func(time.Duration)
}

// NewRetryStore wraps inner with retrySchedule.
func NewRetryStore(inner Store) *RetryStore { return &RetryStore{Inner: inner} }

func (s *RetryStore) sleep(d time.Duration) {
	if s.Sleep != nil {
		s.Sleep(d)
		return
	}
	time.Sleep(d)
}

// do runs op, retrying per retrySchedule while the error stays transient.
func (s *RetryStore) do(op func() error) error {
	err := op()
	for _, d := range retrySchedule {
		if err == nil || !TransientErr(err) {
			return err
		}
		s.sleep(d)
		err = op()
	}
	return err
}

func (s *RetryStore) Get(name string) (data []byte, err error) {
	err = s.do(func() error { data, err = s.Inner.Get(name); return err })
	return data, err
}

func (s *RetryStore) Put(name string, payload []byte) error {
	return s.do(func() error { return s.Inner.Put(name, payload) })
}

func (s *RetryStore) List() (names []string, err error) {
	err = s.do(func() error { names, err = s.Inner.List(); return err })
	return names, err
}

func (s *RetryStore) Delete(name string) error {
	return s.do(func() error { return s.Inner.Delete(name) })
}

// transientErrnos are the syscall errors worth retrying: conditions that
// clear on their own on a shared, loaded machine. Not-exist, permission
// and plain corruption are permanent and pass through.
var transientErrnos = []error{
	syscall.EINTR,
	syscall.EAGAIN,
	syscall.EIO,
	syscall.EBUSY,
	syscall.ENFILE,
	syscall.EMFILE,
}

// TransientErr reports whether err is worth retrying: whether it wraps
// one of transientErrnos.
func TransientErr(err error) bool {
	for _, e := range transientErrnos {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}
