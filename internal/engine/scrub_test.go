package engine

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rtltimer/internal/bog"
	"rtltimer/internal/liberty"
)

// TestScrubCacheQuarantinesCorruptEntries: a scrub pass over a cache with
// one corrupted entry and one entry it cannot read (a symlink to itself)
// moves only the corrupted one into quarantine/, counts the other as
// unreadable and leaves it where it is, as a warm load would, leaves the
// valid entries serving, and reports the tally.
func TestScrubCacheQuarantinesCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	_, tag := populateCache(t, dir, 2)
	lib := liberty.DefaultPseudoLib()
	badRep := entryName(Key{Design: tag, Variant: bog.AIMG}, lib)
	if err := os.WriteFile(filepath.Join(dir, badRep), []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	loop := filepath.Join(dir, "loop.rep")
	if err := os.Symlink("loop.rep", loop); err != nil {
		t.Fatal(err)
	}

	rep, err := ScrubCache(dir, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	variants := len(bog.Variants())
	if rep.Scanned != variants+1 || rep.Valid != variants-1 || rep.Quarantined != 1 || rep.Unreadable != 1 {
		t.Fatalf("report %+v, want %d scanned, %d valid, 1 quarantined, 1 unreadable", rep, variants+1, variants-1)
	}
	if !strings.HasSuffix(rep.String(), "; 1 unreadable") {
		t.Fatalf("report %q does not name the unreadable entry", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, specimenName(badRep, []byte("corrupt")))); err != nil {
		t.Fatalf("%s not in quarantine: %v", badRep, err)
	}
	if _, err := os.Stat(filepath.Join(dir, badRep)); !os.IsNotExist(err) {
		t.Fatalf("%s still in the serving namespace", badRep)
	}
	if target, err := os.Readlink(loop); err != nil || target != "loop.rep" {
		t.Fatalf("the unreadable entry moved: %q, %v", target, err)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "quarantine", "loop*")); len(q) != 0 {
		t.Fatalf("the unreadable entry was quarantined: %v", q)
	}
	// The surviving entries still serve a warm engine; the quarantined one
	// rebuilds.
	d, _ := buildDesign(t)
	e := New(1)
	e.SetCacheDir(dir)
	for _, v := range bog.Variants() {
		if _, err := e.EvalRep(Key{Design: tag, Variant: v}, lib, FixedDesign(d)); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.DiskHits != int64(variants-1) || st.Builds != 1 {
		t.Fatalf("post-scrub stats %+v, want %d hits and 1 rebuild", st, variants-1)
	}
	// A second scrub over the repaired cache quarantines nothing, and
	// still cannot read the loop.
	rep2, err := ScrubCache(dir, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Quarantined != 0 || rep2.Valid != variants || rep2.Unreadable != 1 {
		t.Fatalf("second scrub %+v, want all %d valid and 1 unreadable", rep2, variants)
	}
}

// TestScrubCacheChecksFingerprint: a warm load trusts the persisted
// arrival fingerprint, so the scrub recomputes it. An entry whose checksum
// is valid but whose fingerprint disagrees with its arrival vector is
// quarantined and counted, and the next run rebuilds it and serves the
// right fingerprint.
func TestScrubCacheChecksFingerprint(t *testing.T) {
	dir := t.TempDir()
	cold, tag := populateCache(t, dir, 2)
	lib := liberty.DefaultPseudoLib()
	key := Key{Design: tag, Variant: bog.XAG}
	want := cold[bog.XAG].ArrivalSHA256
	name := entryName(key, lib)
	path := filepath.Join(dir, name)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := clone(orig[:len(orig)-checksumSize])
	graphLen := binary.LittleEndian.Uint32(body[8:])
	body[12+graphLen] ^= 0x01 // the first byte of the persisted fingerprint
	bad := sealEntry(body)
	if res := decodeEntry(bad, lib); res == nil || res.ArrivalSHA256 == want {
		t.Fatal("the re-sealed entry does not decode to the altered fingerprint")
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := ScrubCache(dir, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	variants := len(bog.Variants())
	if rep.Scanned != variants || rep.Valid != variants-1 || rep.Quarantined != 1 {
		t.Fatalf("report %+v, want %d scanned, %d valid, 1 quarantined", rep, variants, variants-1)
	}
	if _, err := os.Stat(filepath.Join(dir, specimenName(name, bad))); err != nil {
		t.Fatalf("the entry is not in quarantine: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("the entry is still in the serving namespace")
	}

	d, _ := buildDesign(t)
	e := New(1).withDir(dir)
	rr, err := e.EvalRep(key, lib, FixedDesign(d))
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Builds != 1 || st.DiskHits != 0 {
		t.Fatalf("post-scrub stats %+v, want 1 rebuild", st)
	}
	if rr.ArrivalSHA256 != want {
		t.Fatalf("rebuild serves fingerprint %s, want %s", rr.ArrivalSHA256, want)
	}
	warm, err := New(1).withDir(dir).EvalRep(key, lib, failingSource(t))
	if err != nil {
		t.Fatal(err)
	}
	if warm.ArrivalSHA256 != want {
		t.Fatalf("rewritten entry serves fingerprint %s, want %s", warm.ArrivalSHA256, want)
	}
}

// TestScrubQuarantineAccumulatesSpecimens: "corrupt -> scrub -> rebuild
// -> corrupt -> scrub" must never destroy the first piece of evidence.
// Each distinct corruption of one entry lands under its own specimen
// name, including two that keep a valid checksum (whose CRC-32C is the
// same constant), and a repeat of identical bytes collapses into the
// specimen already there.
func TestScrubQuarantineAccumulatesSpecimens(t *testing.T) {
	dir := t.TempDir()
	name := "cafef00d.rep"
	bodies := [][]byte{
		[]byte("first corruption"),
		[]byte("second corruption"),
		sealEntry([]byte("RTLR sealed but malformed")),
		sealEntry([]byte("RTLR sealed and malformed too")),
		[]byte("first corruption"),
	}
	for _, body := range bodies {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := ScrubCache(dir, ScrubOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Quarantined != 1 {
			t.Fatalf("report %+v, want 1 quarantined", rep)
		}
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s still in the serving namespace after scrub", name)
		}
	}
	for _, body := range bodies {
		data, err := os.ReadFile(filepath.Join(dir, specimenName(name, body)))
		if err != nil {
			t.Fatalf("specimen of %q missing: %v", body, err)
		}
		if !bytes.Equal(data, body) {
			t.Errorf("specimen holds %q, want %q (overwritten?)", data, body)
		}
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "quarantine", "cafef00d-*.rep")); len(q) != len(bodies)-1 {
		t.Fatalf("quarantine holds %v, want %d distinct specimens", q, len(bodies)-1)
	}
}

// TestScrubCacheReclaimsTemps: the scrub is the only janitor. Opening an
// engine on the directory touches no file; the scrub then sweeps the stale
// temp files, and fresh ones (live writers) survive it.
func TestScrubCacheReclaimsTemps(t *testing.T) {
	dir := t.TempDir()
	files := map[string]bool{ // name -> stale
		".rep-orphan1": true,
		".rep-orphan2": true,
		".rep-live":    false,
	}
	old := time.Now().Add(-2 * staleTempAge)
	for name, stale := range files {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if stale {
			if err := os.Chtimes(p, old, old); err != nil {
				t.Fatal(err)
			}
		}
	}
	New(1).SetCacheDir(dir)
	for name := range files {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("opening an engine removed %s: %v", name, err)
		}
	}
	rep, err := ScrubCache(dir, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TempsReclaimed != 2 || rep.Scanned != 0 {
		t.Fatalf("report %+v, want 2 temps reclaimed and no entry scanned", rep)
	}
	for name, stale := range files {
		_, err := os.Stat(filepath.Join(dir, name))
		if stale && !os.IsNotExist(err) {
			t.Fatalf("stale %s survived", name)
		}
		if !stale && err != nil {
			t.Fatalf("fresh %s was reclaimed: %v", name, err)
		}
	}
}

// TestScrubCacheBudgetEvictsLRU: the size budget evicts valid entries
// oldest-mtime-first (name-tiebroken) until the cache fits, and never
// touches entries it can keep.
func TestScrubCacheBudgetEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	_, tag := populateCache(t, dir, 1)
	lib := liberty.DefaultPseudoLib()
	variants := bog.Variants()
	// Deterministic ages: variant i modified i hours ago — the oldest
	// (largest i) must be evicted first.
	var names []string
	var total int64
	for i, v := range variants {
		name := entryName(Key{Design: tag, Variant: v}, lib)
		names = append(names, name)
		mt := time.Now().Add(-time.Duration(i) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, name), mt, mt); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	// Budget for all but the oldest entry.
	oldest := names[len(names)-1]
	info, err := os.Stat(filepath.Join(dir, oldest))
	if err != nil {
		t.Fatal(err)
	}
	budget := total - info.Size()
	rep, err := ScrubCache(dir, ScrubOptions{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evicted != 1 || rep.BytesBefore != total || rep.BytesAfter > budget {
		t.Fatalf("report %+v, want 1 eviction fitting %d bytes", rep, budget)
	}
	if _, err := os.Stat(filepath.Join(dir, oldest)); !os.IsNotExist(err) {
		t.Fatal("budget GC did not evict the oldest entry")
	}
	for _, name := range names[:len(names)-1] {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("budget GC evicted a newer entry %s: %v", name, err)
		}
	}
}

// TestScrubCacheBudgetZeroDisablesGC: Budget 0 never evicts.
func TestScrubCacheBudgetZeroDisablesGC(t *testing.T) {
	dir := t.TempDir()
	_, _ = populateCache(t, dir, 1)
	rep, err := ScrubCache(dir, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evicted != 0 || rep.BytesAfter != rep.BytesBefore {
		t.Fatalf("budget-less scrub evicted: %+v", rep)
	}
}

// TestParseSizeBudget covers the accepted grammar and the rejects.
func TestParseSizeBudget(t *testing.T) {
	good := map[string]int64{
		"0":       0,
		"1048576": 1 << 20,
		"64K":     64 << 10,
		"64k":     64 << 10,
		"64KB":    64 << 10,
		"2M":      2 << 20,
		"2MB":     2 << 20,
		"3G":      3 << 30,
		" 5g ":    5 << 30,
		"7B":      7,
	}
	for in, want := range good {
		got, err := ParseSizeBudget(in)
		if err != nil || got != want {
			t.Fatalf("ParseSizeBudget(%q) = %d, %v, want %d", in, got, err, want)
		}
	}
	bad := []string{"", "-1", "12x", "x12", "1.5M", "99999999999G", "K", "MB"}
	for _, in := range bad {
		if got, err := ParseSizeBudget(in); err == nil {
			t.Fatalf("ParseSizeBudget(%q) = %d, want error", in, got)
		}
	}
}
