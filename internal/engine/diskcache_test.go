package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/elab"
	"rtltimer/internal/liberty"
)

// failingSource is a DesignSource that must never be invoked: warm cache
// paths resolve entirely from disk, so reaching the source means the cache
// missed.
func failingSource(t *testing.T) DesignSource {
	return func() (*elab.Design, error) {
		t.Error("design source invoked on a path that must be served from the disk cache")
		return nil, errors.New("unexpected build")
	}
}

// requireIdentical asserts bit-identity between two representation
// evaluations: the determinism contract of the disk tier is that a warm
// load is indistinguishable from the cold build it was persisted from.
func requireIdentical(t *testing.T, cold, warm *RepResult) {
	t.Helper()
	if !bytes.Equal(bog.MarshalGraph(cold.Graph), bog.MarshalGraph(warm.Graph)) {
		t.Fatal("warm graph is not byte-identical to the cold build")
	}
	eqF64 := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s length %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d]: %v vs %v (bits differ)", name, i, a[i], b[i])
			}
		}
	}
	eqF64("arrival", cold.Arrival, warm.Arrival)
	cl, cs, cd, cf := cold.An.State()
	wl, ws, wd, wf := warm.An.State()
	eqF64("load", cl, wl)
	eqF64("slew", cs, ws)
	eqF64("delay", cd, wd)
	if len(cf) != len(wf) {
		t.Fatalf("fanout length %d vs %d", len(cf), len(wf))
	}
	for i := range cf {
		if cf[i] != wf[i] {
			t.Fatalf("fanout[%d]: %d vs %d", i, cf[i], wf[i])
		}
	}
	cc, cr := cold.Ext.State()
	wc, wr := warm.Ext.State()
	if len(cc) != len(wc) {
		t.Fatalf("cone count %d vs %d", len(cc), len(wc))
	}
	for i := range cc {
		if cc[i] != wc[i] {
			t.Fatalf("cone[%d]: %+v vs %+v", i, cc[i], wc[i])
		}
	}
	eqF64("rankpct", cr, wr)
	for _, p := range []float64{0.2, 0.45, 0.7} {
		a, b := cold.At(p), warm.At(p)
		if math.Float64bits(a.WNS) != math.Float64bits(b.WNS) ||
			math.Float64bits(a.TNS) != math.Float64bits(b.TNS) {
			t.Fatalf("period %v: WNS/TNS %v/%v vs %v/%v", p, a.WNS, a.TNS, b.WNS, b.TNS)
		}
		eqF64("slack", a.Slack, b.Slack)
	}
}

// populateCache cold-builds every variant of the design into dir and
// returns the results.
func populateCache(t *testing.T, dir string, jobs int) (map[bog.Variant]*RepResult, string) {
	t.Helper()
	d, src := buildDesign(t)
	e := New(jobs)
	e.SetCacheDir(dir)
	lib := liberty.DefaultPseudoLib()
	tag := DesignTag(d.Name, src)
	variants := bog.Variants()
	cold := make([]*RepResult, len(variants))
	err := e.ForEachErr(len(variants), func(vi int) error {
		rr, rerr := e.EvalRep(Key{Design: tag, Variant: variants[vi]}, lib, FixedDesign(d))
		cold[vi] = rr
		return rerr
	})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Builds != int64(len(variants)) || st.DiskMisses != int64(len(variants)) || st.DiskWrites != int64(len(variants)) {
		t.Fatalf("cold run stats %+v, want %d builds/misses/writes", st, len(variants))
	}
	out := map[bog.Variant]*RepResult{}
	for vi, v := range variants {
		out[v] = cold[vi]
	}
	return out, tag
}

// TestDiskCacheWarmRunZeroBuilds is the headline contract: a second
// process (modeled by a fresh engine) pointed at a warm cache directory
// performs zero graph builds across all four variants at jobs 1 and 8,
// never invokes the design source, and produces byte-identical results.
func TestDiskCacheWarmRunZeroBuilds(t *testing.T) {
	dir := t.TempDir()
	cold, tag := populateCache(t, dir, 8)
	ents, err := filepath.Glob(filepath.Join(dir, "*.rep"))
	if err != nil || len(ents) != len(bog.Variants()) {
		t.Fatalf("cache dir holds %d entries (%v), want %d", len(ents), err, len(bog.Variants()))
	}
	lib := liberty.DefaultPseudoLib()
	for _, jobs := range []int{1, 8} {
		e := New(jobs)
		e.SetCacheDir(dir)
		variants := bog.Variants()
		warm := make([]*RepResult, len(variants))
		err := e.ForEachErr(len(variants), func(vi int) error {
			rr, rerr := e.EvalRep(Key{Design: tag, Variant: variants[vi]}, lib, failingSource(t))
			warm[vi] = rr
			return rerr
		})
		if err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.Builds != 0 {
			t.Fatalf("jobs=%d: warm run performed %d graph builds, want 0", jobs, st.Builds)
		}
		if st.DiskHits != int64(len(variants)) || st.DiskMisses != 0 {
			t.Fatalf("jobs=%d: warm run stats %+v, want %d disk hits and 0 misses", jobs, st, len(variants))
		}
		for vi, v := range variants {
			requireIdentical(t, cold[v], warm[vi])
		}
	}
}

// TestDiskCacheCorruptEntriesFallBack proves entries are advisory: any
// corruption — truncation, bit flips anywhere, a version bump, garbage, an
// empty file — silently degrades to a rebuild that repairs the entry, and
// the rebuilt results match the original build exactly.
func TestDiskCacheCorruptEntriesFallBack(t *testing.T) {
	dir := t.TempDir()
	cold, tag := populateCache(t, dir, 2)
	key := Key{Design: tag, Variant: bog.AIG}
	lib := liberty.DefaultPseudoLib()
	path := filepath.Join(dir, entryName(key, lib))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("expected entry at %s: %v", path, err)
	}
	d, _ := buildDesign(t)

	// reseal rewrites the entry's version word and seals the body again.
	reseal := func(version uint32) []byte {
		body := clone(orig[:len(orig)-checksumSize])
		binary.LittleEndian.PutUint32(body[4:], version)
		return sealEntry(body)
	}
	corruptions := map[string]func(t *testing.T) []byte{
		"truncated-header":   func(*testing.T) []byte { return orig[:7] },
		"truncated-payload":  func(*testing.T) []byte { return orig[:len(orig)/2] },
		"truncated-checksum": func(*testing.T) []byte { return orig[:len(orig)-5] },
		"flip-version":       func(*testing.T) []byte { b := clone(orig); b[4] ^= 0xff; return b },
		// A version mismatch with a *valid* checksum exercises the version
		// gate itself rather than the integrity check, provided the same
		// re-seal at the current version decodes.
		"future-version-valid-checksum": func(t *testing.T) []byte {
			if decodeEntry(reseal(entryVersion), lib) == nil {
				t.Fatal("the entry re-sealed at the current version does not decode")
			}
			return reseal(entryVersion + 1)
		},
		"flip-graph-byte": func(*testing.T) []byte { b := clone(orig); b[20] ^= 0x10; return b },
		"flip-tail-byte":  func(*testing.T) []byte { b := clone(orig); b[len(b)-40] ^= 0x01; return b },
		"garbage":         func(*testing.T) []byte { return []byte("not a cache entry at all") },
		"empty":           func(*testing.T) []byte { return nil },
	}
	for name, mutate := range corruptions {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mutate(t), 0o644); err != nil {
				t.Fatal(err)
			}
			e := New(1)
			e.SetCacheDir(dir)
			rr, err := e.EvalRep(key, lib, FixedDesign(d))
			if err != nil {
				t.Fatalf("corrupt entry failed the run: %v", err)
			}
			st := e.Stats()
			if st.Builds != 1 || st.DiskHits != 0 || st.DiskMisses != 1 || st.DiskWrites != 1 {
				t.Fatalf("stats %+v, want 1 build / 0 hits / 1 miss / 1 write", st)
			}
			requireIdentical(t, cold[bog.AIG], rr)
			// The rebuilt entry must serve the next engine from disk again.
			e2 := New(1)
			e2.SetCacheDir(dir)
			if _, err := e2.EvalRep(key, lib, failingSource(t)); err != nil {
				t.Fatal(err)
			}
			if st := e2.Stats(); st.DiskHits != 1 || st.Builds != 0 {
				t.Fatalf("repaired entry was not served from disk: %+v", st)
			}
		})
	}
}

// TestFormatBumpReplacesEntryInPlace: entry names do not move with the
// entry format, so an intact entry of the previous entry version sits at
// the key's real name. Loading it is a plain miss — no quarantine, no I/O
// error — and the rebuild's write replaces it, under the same name, with
// the current version's bytes.
func TestFormatBumpReplacesEntryInPlace(t *testing.T) {
	dir := t.TempDir()
	_, tag := populateCache(t, dir, 1)
	key := Key{Design: tag, Variant: bog.SOG}
	lib := liberty.DefaultPseudoLib()
	path := filepath.Join(dir, entryName(key, lib))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := clone(orig[:len(orig)-checksumSize])
	binary.LittleEndian.PutUint32(body[4:], entryVersion-1)
	if err := os.WriteFile(path, sealEntry(body), 0o644); err != nil {
		t.Fatal(err)
	}
	d, _ := buildDesign(t)
	e := New(1).withDir(dir)
	if _, err := e.EvalRep(key, lib, FixedDesign(d)); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.DiskMisses != 1 || st.Builds != 1 || st.DiskWrites != 1 || st.Quarantined != 0 || st.DiskErrors != 0 {
		t.Fatalf("stats %+v, want 1 miss / 1 build / 1 write / 0 quarantined / 0 I/O errors", st)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, orig) {
		t.Fatalf("entry at the key's name is not the current version's (err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("quarantine/ exists after a plain version miss (err %v)", err)
	}
}

// TestEntryNameGolden pins one key's entry name. Names hash a frozen
// format salt, so neither a format bump nor any other change may move
// them without this test saying so.
func TestEntryNameGolden(t *testing.T) {
	key := Key{Design: DesignTag("golden", "module golden; endmodule\n"), Variant: bog.XAG}
	const want = "e749cbbf1466b90af26f018a593cb9ee43b73521e6835a77bd285fed0b210416.rep"
	if got := entryName(key, liberty.DefaultPseudoLib()); got != want {
		t.Fatalf("entryName = %s, want %s", got, want)
	}
}

// TestDiskCacheKeyedByLibrary: a library with different timing must not be
// served another library's entries.
func TestDiskCacheKeyedByLibrary(t *testing.T) {
	dir := t.TempDir()
	_, tag := populateCache(t, dir, 1)
	d, _ := buildDesign(t)
	other := liberty.DefaultPseudoLib()
	other.WireLoad *= 2
	e := New(1)
	e.SetCacheDir(dir)
	if _, err := e.EvalRep(Key{Design: tag, Variant: bog.AIG}, other, FixedDesign(d)); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Builds != 1 || st.DiskHits != 0 {
		t.Fatalf("modified library hit another library's entry: %+v", st)
	}
}

// TestDiskCacheDisabledByDefault: without SetCacheDir nothing touches the
// disk counters and no files appear.
func TestDiskCacheDisabledByDefault(t *testing.T) {
	d, src := buildDesign(t)
	e := New(1)
	if _, err := e.EvalRep(Key{Design: DesignTag(d.Name, src), Variant: bog.SOG},
		liberty.DefaultPseudoLib(), FixedDesign(d)); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.DiskHits != 0 || st.DiskMisses != 0 || st.DiskWrites != 0 {
		t.Fatalf("disk counters moved without a cache dir: %+v", st)
	}
}

// fuzzSeedSrc is a small design whose four entries seed FuzzEntryDecode:
// a register, an adder, a mux, an xor and an or in 34 to 109 nodes per
// variant, so mutations of a seed stay cheap to decode.
const fuzzSeedSrc = `
module tiny(input clk, input s, input [2:0] a, input [2:0] b, output [2:0] out);
  reg [2:0] q;
  always @(posedge clk) q <= s ? a + b : a ^ q;
  assign out = q | b;
endmodule`

// FuzzEntryDecode drives the whole disk-entry decoder. Each input is an
// entry body that the target seals with the current checksum, so
// mutations reach the structural checks behind it instead of dying at the
// checksum: nothing may panic, and an accepted entry must re-encode to
// the same bytes through encodeEntry. The seeds are the four entries of a
// small built design plus empty, garbage and truncated bodies.
func FuzzEntryDecode(f *testing.F) {
	e := New(1)
	lib := liberty.DefaultPseudoLib()
	tag := DesignTag("tiny", fuzzSeedSrc)
	var body []byte
	for _, v := range bog.Variants() {
		rr, err := e.EvalRep(Key{Design: tag, Variant: v}, lib, LazyDesign(fuzzSeedSrc))
		if err != nil {
			f.Fatal(err)
		}
		entry := encodeEntry(rr)
		if decodeEntry(entry, lib) == nil {
			f.Fatalf("%v: the seed entry does not decode", v)
		}
		body = entry[:len(entry)-checksumSize]
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte("not a cache entry at all"))
	f.Add(body[:12])
	f.Add(body[:len(body)/2])
	f.Add(body[:len(body)-1])
	f.Fuzz(func(t *testing.T, body []byte) {
		entry := sealEntry(clone(body))
		res := decodeEntry(entry, lib)
		if res == nil {
			return
		}
		if re := encodeEntry(res); !bytes.Equal(re, entry) {
			t.Fatalf("accepted entry of %d bytes re-encodes to %d different bytes", len(entry), len(re))
		}
	})
}

func (e *Engine) withDir(dir string) *Engine { e.SetCacheDir(dir); return e }

func clone(b []byte) []byte { return append([]byte(nil), b...) }
