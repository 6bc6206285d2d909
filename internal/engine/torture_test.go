package engine

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rtltimer/internal/bog"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
)

// requireOracle asserts one evaluation against the retained reference STA:
// whatever the cache fabric went through — torn writes, bit flips, EIO,
// latency — the served result must stay bit-identical to a from-scratch
// sta.AnalyzeReference pass.
func requireOracle(t *testing.T, rr *RepResult, lib *liberty.PseudoLib) {
	t.Helper()
	for _, p := range []float64{0.25, 0.5, 0.9} {
		got := rr.At(p)
		want := sta.AnalyzeReference(rr.Graph, lib, p)
		if math.Float64bits(got.WNS) != math.Float64bits(want.WNS) ||
			math.Float64bits(got.TNS) != math.Float64bits(want.TNS) {
			t.Fatalf("period %v: WNS/TNS %v/%v, oracle %v/%v", p, got.WNS, got.TNS, want.WNS, want.TNS)
		}
		for i := range want.Slack {
			if math.Float64bits(got.Slack[i]) != math.Float64bits(want.Slack[i]) {
				t.Fatalf("period %v: slack[%d] %v, oracle %v", p, i, got.Slack[i], want.Slack[i])
			}
		}
	}
}

// TestCacheTortureSuite property-tests the whole fabric: for every planned
// failure mode, at jobs 1 and 8, two engine generations sharing the
// faulty store must (a) never return an error, (b) serve every variant
// bit-identical to the reference oracle and to each other, and (c)
// account for every variant as either a rebuild or a disk hit — degraded,
// never wrong, never stuck.
func TestCacheTortureSuite(t *testing.T) {
	scenarios := []struct {
		name string
		plan FaultPlan
	}{
		{"clean", FaultPlan{}},
		// Every write is torn mid-payload and reported as a success: the
		// persisted entries are all invalid, so every generation quarantines
		// and rebuilds.
		{"torn-writes", FaultPlan{PutTruncate: map[int]int{FaultEvery: 17}}},
		// Every write fails permanently (read-only or full store): cold
		// cache forever.
		{"put-eperm", FaultPlan{PutErr: map[int]bool{FaultEvery: false}}},
		// Every write fails transiently: the retry schedule exhausts and
		// the write degrades — slower, never wrong.
		{"put-transient-storm", FaultPlan{PutErr: map[int]bool{FaultEvery: true}}},
		// One transient read glitch on the very first Get: RetryStore heals
		// it invisibly.
		{"get-transient-once", FaultPlan{GetErr: map[int]bool{0: true}}},
		// Every read fails permanently (dead disk): DiskErrors climbs,
		// everything rebuilds.
		{"get-eio", FaultPlan{GetErr: map[int]bool{FaultEvery: false}}},
		// Every read returns a corrupted payload: checksums catch it, the
		// entries are quarantined, everything rebuilds.
		{"get-bitflip", FaultPlan{GetFlipBit: map[int]int{FaultEvery: 12347}}},
		// Every write lands corrupted at rest (bad device): the first warm
		// read quarantines it and rebuilds.
		{"put-bitflip", FaultPlan{PutFlipBit: map[int]int{FaultEvery: 40009}}},
		// Slow store (contended NFS): purely a scheduling perturbation.
		{"latency", FaultPlan{OpDelay: 200 * time.Microsecond}},
	}
	d, src := buildDesign(t)
	lib := liberty.DefaultPseudoLib()
	tag := DesignTag(d.Name, src)
	variants := bog.Variants()
	for _, sc := range scenarios {
		for _, jobs := range []int{1, 8} {
			t.Run(sc.name+"-jobs"+string(rune('0'+jobs)), func(t *testing.T) {
				store := NewRetryStore(NewFaultStore(NewDirStore(t.TempDir()), sc.plan))
				var prev []*RepResult
				for gen := 0; gen < 2; gen++ {
					e := New(jobs)
					e.SetCacheStore(store)
					results := make([]*RepResult, len(variants))
					err := e.ForEachErr(len(variants), func(vi int) error {
						rr, rerr := e.EvalRep(Key{Design: tag, Variant: variants[vi]}, lib, FixedDesign(d))
						results[vi] = rr
						return rerr
					})
					if err != nil {
						t.Fatalf("gen %d: the fabric surfaced an error instead of degrading: %v", gen, err)
					}
					st := e.Stats()
					if st.Builds+st.DiskHits != int64(len(variants)) {
						t.Fatalf("gen %d: %d builds + %d hits, want every variant accounted (%+v)",
							gen, st.Builds, st.DiskHits, st)
					}
					for vi := range results {
						requireOracle(t, results[vi], lib)
						if prev != nil {
							requireIdentical(t, prev[vi], results[vi])
						}
					}
					prev = results
				}
			})
		}
	}
}

// TestTortureTransientReadHealsInvisibly: a single transient glitch is
// absorbed entirely inside RetryStore — the warm engine sees clean hits,
// zero DiskErrors, zero rebuilds.
func TestTortureTransientReadHealsInvisibly(t *testing.T) {
	dir := t.TempDir()
	_, tag := populateCache(t, dir, 2)
	lib := liberty.DefaultPseudoLib()
	store := NewRetryStore(NewFaultStore(NewDirStore(dir), FaultPlan{
		GetErr: map[int]bool{0: true, 2: true}, // two isolated glitches
	}))
	e := New(2)
	e.SetCacheStore(store)
	variants := bog.Variants()
	err := e.ForEachErr(len(variants), func(vi int) error {
		_, rerr := e.EvalRep(Key{Design: tag, Variant: variants[vi]}, lib, failingSource(t))
		return rerr
	})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Builds != 0 || st.DiskHits != int64(len(variants)) || st.DiskErrors != 0 {
		t.Fatalf("transient glitches leaked out of the retry layer: %+v", st)
	}
}

// TestTortureQuarantineStopsReReads: a corrupt entry is read exactly once.
// The first engine quarantines it (preserving the bytes) and rebuilds; the
// rebuild's write repairs the serving namespace, so the next engine gets a
// clean disk hit. A second, different corruption of the same entry is
// quarantined beside the first specimen, never over it.
func TestTortureQuarantineStopsReReads(t *testing.T) {
	dir := t.TempDir()
	_, tag := populateCache(t, dir, 1)
	lib := liberty.DefaultPseudoLib()
	key := Key{Design: tag, Variant: bog.XAG}
	name := entryName(key, lib)
	path := filepath.Join(dir, name)
	d, _ := buildDesign(t)
	var specimens [][]byte
	for _, bit := range []int{0x40, 0x02} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= byte(bit)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		specimens = append(specimens, data)

		e := New(1)
		e.SetCacheDir(dir)
		if _, err := e.EvalRep(key, lib, FixedDesign(d)); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.Quarantined != 1 || st.Builds != 1 || st.DiskErrors != 0 {
			t.Fatalf("stats %+v, want exactly one quarantine and one rebuild", st)
		}

		e2 := New(1)
		e2.SetCacheDir(dir)
		if _, err := e2.EvalRep(key, lib, failingSource(t)); err != nil {
			t.Fatal(err)
		}
		if st := e2.Stats(); st.DiskHits != 1 || st.Builds != 0 || st.Quarantined != 0 {
			t.Fatalf("repaired entry not served cleanly: %+v", st)
		}
	}
	for i, want := range specimens {
		got, err := os.ReadFile(filepath.Join(dir, specimenName(name, want)))
		if err != nil {
			t.Fatalf("corruption %d not preserved in quarantine/: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("specimen %d does not match the corrupt entry", i)
		}
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.rep")); len(q) != len(specimens) {
		t.Fatalf("quarantine holds %v, want one specimen per corruption", q)
	}
}

// TestTortureDiskErrorsCounted: real I/O failures (not corruption, not
// absence) are visible in Stats.DiskErrors — the fabric degrades loudly,
// not silently.
func TestTortureDiskErrorsCounted(t *testing.T) {
	dir := t.TempDir()
	_, tag := populateCache(t, dir, 1)
	lib := liberty.DefaultPseudoLib()
	store := NewFaultStore(NewDirStore(dir), FaultPlan{
		GetErr: map[int]bool{FaultEvery: false},
		PutErr: map[int]bool{FaultEvery: false},
	})
	d, _ := buildDesign(t)
	e := New(1)
	e.SetCacheStore(store) // bare fault store: no retry layer to soak errors
	variants := bog.Variants()
	for _, v := range variants {
		if _, err := e.EvalRep(Key{Design: tag, Variant: v}, lib, FixedDesign(d)); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Builds != int64(len(variants)) {
		t.Fatalf("dead store must rebuild everything: %+v", st)
	}
	// One failed Get per miss plus one failed Put per build.
	if st.DiskErrors != int64(2*len(variants)) {
		t.Fatalf("DiskErrors = %d, want %d (every Get and Put failed)", st.DiskErrors, 2*len(variants))
	}
}
