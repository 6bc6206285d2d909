// Cache maintenance: the stale-temp sweep that runs on SetCacheDir, and
// ScrubCache — the explicit offline maintenance pass behind the CLIs'
// -cache-scrub mode. Scrubbing validates every entry the way a warm load
// would (checksum, magic, version, codec, shape), then recomputes the
// arrival fingerprint that a load trusts, quarantines the invalid ones
// along with entries of retired formats that nothing reads any more,
// reclaims temp files orphaned by killed processes, and optionally
// enforces a size budget by evicting the least-recently-modified entries
// first. Subdirectories are never scanned: a "claims/" directory left by
// an older version that coordinated builds through claim files is inert,
// and may be deleted.
//
// Scrubbing is safe to run concurrently with live engines sharing the
// directory: entries are advisory, so the worst a lost race can cost is
// one rebuild, and quarantine/eviction never rewrite entry bytes — they
// only move or remove whole files.
package engine

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"rtltimer/internal/liberty"
)

// staleTempAge is how old a leftover temp file must be before a sweep
// reclaims it; generous enough that no live writer — entries are written
// in one Write+Rename — can be holding one.
const staleTempAge = time.Hour

// cleanStaleTemps removes orphaned ".rep-*" temp files left behind by
// processes killed between CreateTemp and Rename, so a long-lived shared
// cache directory does not accumulate dead files. Entirely best-effort;
// returns how many it reclaimed.
func cleanStaleTemps(dir string) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, ent := range ents {
		if !strings.HasPrefix(ent.Name(), ".rep-") {
			continue
		}
		if info, err := ent.Info(); err == nil && time.Since(info.ModTime()) > staleTempAge {
			if os.Remove(filepath.Join(dir, ent.Name())) == nil {
				n++
			}
		}
	}
	return n
}

// retiredShardSuffix names the per-shard arrival entries older caches
// hold. No engine reads them any more, so a scrub quarantines them
// regardless of their contents.
const retiredShardSuffix = ".shard"

// ScrubOptions configures one ScrubCache pass.
type ScrubOptions struct {
	// Budget caps the total bytes of valid entries; when exceeded,
	// entries are evicted oldest-modification-time first until the cache
	// fits. 0 disables the GC. Quarantined bytes do not count toward the
	// budget — quarantine is an inspection area, emptied by deleting the
	// directory.
	Budget int64
}

// ScrubReport is what one ScrubCache pass found and did.
type ScrubReport struct {
	Scanned        int   // entries examined
	Valid          int   // entries that passed full validation
	Quarantined    int   // invalid or retired entries moved to quarantine/
	TempsReclaimed int   // stale ".rep-*" temp files removed
	Evicted        int   // valid entries removed by the size budget
	BytesBefore    int64 // valid entry bytes before the budget GC
	BytesAfter     int64 // valid entry bytes after the budget GC
}

// String renders the report the way the CLIs print it.
func (r *ScrubReport) String() string {
	s := fmt.Sprintf("scanned %d entries: %d valid, %d quarantined; reclaimed %d stale temps",
		r.Scanned, r.Valid, r.Quarantined, r.TempsReclaimed)
	if r.Evicted > 0 || r.BytesBefore != r.BytesAfter {
		s += fmt.Sprintf("; budget evicted %d entries (%d -> %d bytes)", r.Evicted, r.BytesBefore, r.BytesAfter)
	}
	return s
}

// ScrubCache validates every cache entry under dir, quarantines corrupt
// and retired ones, reclaims stale temps, and applies the optional size
// budget. The error is non-nil only when the directory itself cannot be
// read — per-entry failures are what the scrub exists to absorb.
func ScrubCache(dir string, opts ScrubOptions) (*ScrubReport, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rep := &ScrubReport{}
	rep.TempsReclaimed = cleanStaleTemps(dir)

	// Validation uses the default library only as a binding target for
	// the analyzer/extractor state; every check (checksum, magic, version,
	// codec, vector shapes, arrival fingerprint) is library-independent,
	// so entries written under any library fingerprint validate correctly.
	lib := liberty.DefaultPseudoLib()
	type entry struct {
		name  string
		size  int64
		mtime time.Time
	}
	var valid []entry
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || strings.HasPrefix(name, ".rep-") {
			continue
		}
		isRep := strings.HasSuffix(name, ".rep")
		if !isRep && !strings.HasSuffix(name, retiredShardSuffix) {
			continue
		}
		rep.Scanned++
		ok := false
		if isRep {
			if data, err := os.ReadFile(filepath.Join(dir, name)); err == nil {
				res := decodeEntry(data, lib)
				ok = res != nil && ArrivalDigest(res.Arrival) == res.ArrivalSHA256
			}
		}
		if !ok {
			quarantineFile(dir, name)
			rep.Quarantined++
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		rep.Valid++
		valid = append(valid, entry{name: name, size: info.Size(), mtime: info.ModTime()})
		rep.BytesBefore += info.Size()
	}
	rep.BytesAfter = rep.BytesBefore

	if opts.Budget > 0 && rep.BytesBefore > opts.Budget {
		// Oldest-modified first; ties break on name so the eviction
		// order is deterministic even across same-second mtimes.
		sort.Slice(valid, func(i, j int) bool {
			if !valid[i].mtime.Equal(valid[j].mtime) {
				return valid[i].mtime.Before(valid[j].mtime)
			}
			return valid[i].name < valid[j].name
		})
		for _, v := range valid {
			if rep.BytesAfter <= opts.Budget {
				break
			}
			if os.Remove(filepath.Join(dir, v.name)) == nil {
				rep.Evicted++
				rep.BytesAfter -= v.size
			}
		}
	}
	return rep, nil
}

// quarantineFile moves one invalid entry into dir/quarantine/ by rename,
// best-effort (cross-filesystem caches fall back to leaving the file;
// the next engine read will quarantine it through the store instead).
// A name already present in quarantine/ — the same entry corrupted,
// rebuilt and corrupted again across scrubs — gets an ordinal suffix
// (<name>.1, <name>.2, ...) instead of overwriting the earlier specimen:
// quarantine exists to preserve evidence, and the suffix is a counter,
// never a wall-clock reading (nondeterm contract).
func quarantineFile(dir, name string) {
	qdir := filepath.Join(dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	dst := filepath.Join(qdir, name)
	// Bounded probe: a pathological corruption loop must not scan forever;
	// past the bound the newest specimen is simply not preserved (the
	// source file stays put for the next scrub to retry).
	const maxSpecimens = 10000
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); errors.Is(err, fs.ErrNotExist) {
			break
		}
		if i > maxSpecimens {
			return
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", name, i))
	}
	os.Rename(filepath.Join(dir, name), dst)
}

// ParseSizeBudget parses a human-friendly byte size for -cache-budget:
// a plain integer is bytes; K/M/G suffixes (case-insensitive, optional
// trailing "B") scale by 1024.
func ParseSizeBudget(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	t = strings.TrimSuffix(t, "B")
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "K"):
		mult, t = 1<<10, strings.TrimSuffix(t, "K")
	case strings.HasSuffix(t, "M"):
		mult, t = 1<<20, strings.TrimSuffix(t, "M")
	case strings.HasSuffix(t, "G"):
		mult, t = 1<<30, strings.TrimSuffix(t, "G")
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("invalid size %q (want e.g. 1048576, 64M, 2G)", s)
	}
	return n * mult, nil
}
