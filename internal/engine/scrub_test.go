package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rtltimer/internal/bog"
	"rtltimer/internal/liberty"
)

// TestScrubCacheQuarantinesCorruptEntries: a scrub pass over a cache with
// one corrupted .rep, one corrupted .shard and one well-formed .shard of
// the retired per-shard format moves exactly those three into quarantine/,
// leaves the valid entries serving, and reports the tally.
func TestScrubCacheQuarantinesCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	_, tag := populateCache(t, dir, 2)
	lib := liberty.DefaultPseudoLib()
	badRep := entryName(Key{Design: tag, Variant: bog.AIMG}, lib)
	if err := os.WriteFile(filepath.Join(dir, badRep), []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Hand-made .shard files: one corrupt, one well-formed in the retired
	// format (magic "RTLS", version 1, node count, arrivals, SHA-256 of
	// everything before it). Nothing reads either any more.
	badShard := "deadbeef.shard"
	if err := os.WriteFile(filepath.Join(dir, badShard), []byte("also corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	oldShard := "cafef00d.shard"
	old := []byte("RTLS")
	old = binary.LittleEndian.AppendUint32(old, 1)
	old = binary.LittleEndian.AppendUint32(old, 2)
	for _, arr := range []float64{0.25, 0.5} {
		old = binary.LittleEndian.AppendUint64(old, math.Float64bits(arr))
	}
	sum := sha256.Sum256(old)
	if err := os.WriteFile(filepath.Join(dir, oldShard), append(old, sum[:]...), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := ScrubCache(dir, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	variants := len(bog.Variants())
	if rep.Scanned != variants+2 || rep.Valid != variants-1 || rep.Quarantined != 3 {
		t.Fatalf("report %+v, want %d scanned, %d valid, 3 quarantined", rep, variants+2, variants-1)
	}
	for _, name := range []string{badRep, badShard, oldShard} {
		if _, err := os.Stat(filepath.Join(dir, "quarantine", name)); err != nil {
			t.Fatalf("%s not in quarantine: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s still in the serving namespace", name)
		}
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
	// A second scrub over the repaired cache is clean and idempotent.
	rep2, err := ScrubCache(dir, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Quarantined != 0 || rep2.Valid != variants {
		t.Fatalf("second scrub %+v, want all %d valid", rep2, variants)
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
	if _, err := os.Stat(filepath.Join(dir, "quarantine", name)); err != nil {
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

// TestScrubQuarantineAccumulatesSpecimens is the name-collision regression
// (the resident-service bugfix): quarantineFile used to rename over any
// earlier specimen of the same entry name, so "corrupt -> scrub -> rebuild
// -> corrupt -> scrub" silently destroyed the first piece of evidence. Each
// repeat must land under an ordinal suffix instead.
func TestScrubQuarantineAccumulatesSpecimens(t *testing.T) {
	dir := t.TempDir()
	name := "cafef00d.rep"
	corrupt := func(body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	scrub := func() {
		rep, err := ScrubCache(dir, ScrubOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Quarantined != 1 {
			t.Fatalf("report %+v, want 1 quarantined", rep)
		}
	}
	corrupt("first corruption")
	scrub()
	corrupt("second corruption")
	scrub()
	corrupt("third corruption")
	scrub()

	// All three specimens survive, distinguishable and in order.
	want := map[string]string{
		name:        "first corruption",
		name + ".1": "second corruption",
		name + ".2": "third corruption",
	}
	for qname, body := range want {
		data, err := os.ReadFile(filepath.Join(dir, "quarantine", qname))
		if err != nil {
			t.Fatalf("specimen %s missing: %v", qname, err)
		}
		if string(data) != body {
			t.Errorf("specimen %s holds %q, want %q (overwritten?)", qname, data, body)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
		t.Fatalf("%s still in the serving namespace after scrub", name)
	}
}

// TestScrubCacheReclaimsTemps: stale temp files are swept; fresh ones
// (live writers) survive.
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
	rep, err := ScrubCache(dir, ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TempsReclaimed != 2 {
		t.Fatalf("report %+v, want 2 temps reclaimed", rep)
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
