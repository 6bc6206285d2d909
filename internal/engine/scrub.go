// Cache maintenance: ScrubCache, the explicit offline pass behind the
// CLIs' -cache-scrub mode, and the cache directory's only janitor.
// Scrubbing reads every entry through the store composition SetCacheDir
// builds (RetryStore over DirStore), validates it the way a warm load
// would (checksum, magic, version, codec, shape), then recomputes the
// arrival fingerprint that a load trusts. It quarantines the invalid ones
// through the one quarantine helper a warm load uses (diskcache.go). Like
// a load, it leaves an entry it cannot read where it is and counts it,
// and it leaves an intact entry of another entry version in place too: a
// load of that version's binary serves it, a load of this one misses it
// and overwrites it with its rebuild. It reclaims temp files orphaned
// by killed processes — no engine open sweeps them — and optionally
// enforces a size budget by evicting the least-recently-modified entries
// first. Subdirectories are never scanned, and only names ending in
// ".rep" are entries: a "claims/" directory or a ".shard" file left by
// an older version is inert, and may be deleted.
//
// Scrubbing is safe to run concurrently with live engines sharing the
// directory: entries are advisory, so the worst a lost race can cost is
// one rebuild. Quarantine copies an entry's bytes and then deletes it, so
// a live process renaming a fresh entry over the name in between loses
// that entry to the delete; eviction removes whole files. Neither ever
// rewrites the bytes of an entry that stays.
package engine

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"rtltimer/internal/liberty"
)

// staleTempAge is how old a leftover temp file must be before a scrub
// reclaims it; generous enough that no live writer — entries are written
// in one Write+Rename — can be holding one.
const staleTempAge = time.Hour

// cleanStaleTemps deletes through s the temp files among ents that are
// older than staleTempAge: the leftovers of processes killed between
// CreateTemp and Rename, which no read ever sees. Entirely best-effort;
// returns how many it reclaimed.
func cleanStaleTemps(s Store, ents []os.DirEntry) int {
	n := 0
	for _, ent := range ents {
		if !strings.HasPrefix(ent.Name(), tempPrefix) {
			continue
		}
		if info, err := ent.Info(); err == nil && time.Since(info.ModTime()) > staleTempAge {
			if s.Delete(ent.Name()) == nil {
				n++
			}
		}
	}
	return n
}

// ScrubOptions configures one ScrubCache pass.
type ScrubOptions struct {
	// Budget caps the total bytes of the entries left in place, valid or
	// of another entry version; when exceeded, entries are evicted
	// oldest-modification-time first until the cache fits. 0 disables the
	// GC. Quarantined bytes do not count toward the budget — quarantine is
	// an inspection area, emptied by deleting the directory.
	Budget int64
}

// ScrubReport is what one ScrubCache pass found and did.
type ScrubReport struct {
	Scanned        int   // entries examined
	Valid          int   // entries that passed full validation
	Quarantined    int   // invalid entries moved to quarantine/
	Unreadable     int   // entries whose read failed after retries, left in place
	OtherVersion   int   // intact entries of another entry version, left in place
	TempsReclaimed int   // stale temp files removed
	Evicted        int   // entries removed by the size budget
	BytesBefore    int64 // valid and other-version entry bytes before the budget GC
	BytesAfter     int64 // the same after the budget GC
}

// String renders the report the way the CLIs print it.
func (r *ScrubReport) String() string {
	s := fmt.Sprintf("scanned %d entries: %d valid, %d quarantined; reclaimed %d stale temps",
		r.Scanned, r.Valid, r.Quarantined, r.TempsReclaimed)
	if r.Unreadable > 0 {
		s += fmt.Sprintf("; %d unreadable", r.Unreadable)
	}
	if r.OtherVersion > 0 {
		s += fmt.Sprintf("; %d of another entry version", r.OtherVersion)
	}
	if r.Evicted > 0 || r.BytesBefore != r.BytesAfter {
		s += fmt.Sprintf("; budget evicted %d entries (%d -> %d bytes)", r.Evicted, r.BytesBefore, r.BytesAfter)
	}
	return s
}

// ScrubCache validates every cache entry under dir, quarantines invalid
// ones, counts the ones it cannot read and those of another entry
// version, reclaims stale temps, and applies the optional size budget.
// The error is non-nil only when the directory itself cannot be read —
// per-entry failures are what the scrub exists to absorb.
func ScrubCache(dir string, opts ScrubOptions) (*ScrubReport, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	store := NewRetryStore(NewDirStore(dir))
	rep := &ScrubReport{TempsReclaimed: cleanStaleTemps(store, ents)}

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
	var kept []entry
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, entrySuffix) {
			continue
		}
		rep.Scanned++
		data, err := store.Get(name)
		if err != nil {
			rep.Unreadable++
			continue
		}
		res := decodeEntry(data, lib)
		stale := res == nil && otherVersion(data)
		if !stale && (res == nil || ArrivalDigest(res.Arrival) != res.ArrivalSHA256) {
			quarantine(store, name, data)
			rep.Quarantined++
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		if stale {
			rep.OtherVersion++
		} else {
			rep.Valid++
		}
		kept = append(kept, entry{name: name, size: info.Size(), mtime: info.ModTime()})
		rep.BytesBefore += info.Size()
	}
	rep.BytesAfter = rep.BytesBefore

	if opts.Budget > 0 && rep.BytesBefore > opts.Budget {
		// Oldest-modified first; ties break on name so the eviction
		// order is deterministic even across same-second mtimes.
		sort.Slice(kept, func(i, j int) bool {
			if !kept[i].mtime.Equal(kept[j].mtime) {
				return kept[i].mtime.Before(kept[j].mtime)
			}
			return kept[i].name < kept[j].name
		})
		for _, v := range kept {
			if rep.BytesAfter <= opts.Budget {
				break
			}
			if store.Delete(v.name) == nil {
				rep.Evicted++
				rep.BytesAfter -= v.size
			}
		}
	}
	return rep, nil
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
