package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"slices"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/liberty"
)

// arrivalDigestRef is the reference ArrivalDigest must reproduce: one
// 8-byte Write per arrival time.
func arrivalDigestRef(arrival []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, a := range arrival {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(a))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestArrivalDigestMatchesReference pins the chunked digest to the
// per-float reference on lengths around the 512-float chunk (including
// the empty vector), with values whose bits a lossy encoding would alter,
// and on every suite design under every variant.
func TestArrivalDigestMatchesReference(t *testing.T) {
	specials := []float64{
		math.Copysign(0, -1),
		math.Inf(1),
		math.NaN(),
		math.Float64frombits(0x7ff8_0000_0000_0001), // NaN with a payload
		math.SmallestNonzeroFloat64,                 // subnormal
		0x1p-1060,                                   // subnormal
	}
	for _, n := range []int{0, 1, 511, 512, 513, 1025} {
		arr := make([]float64, n)
		for i := range arr {
			arr[i] = 0.01 + 0.37*float64(i)
			if i%5 == 0 || i == n-1 {
				arr[i] = specials[i%len(specials)]
			}
		}
		if got, want := ArrivalDigest(arr), arrivalDigestRef(arr); got != want {
			t.Fatalf("len %d: digest %s, reference %s", n, got, want)
		}
	}

	specs := designs.All()
	if testing.Short() {
		specs = specs[:6]
	}
	e := New(0)
	lib := liberty.DefaultPseudoLib()
	for _, spec := range specs {
		src := designs.Generate(spec)
		for _, v := range bog.Variants() {
			rr, err := e.EvalRep(Key{Design: DesignTag(spec.Name, src), Variant: v}, lib, LazyDesign(src))
			if err != nil {
				t.Fatalf("%s/%v: %v", spec.Name, v, err)
			}
			want := arrivalDigestRef(rr.Arrival)
			if got := ArrivalDigest(rr.Arrival); got != want {
				t.Fatalf("%s/%v: digest %s, reference %s", spec.Name, v, got, want)
			}
		}
		e.Reset()
	}
}

// TestEveryResultCarriesItsDigest: every way the engine makes a RepResult
// — cold build, disk load, full-graph Edit, shard-local Edit, and Edit on
// a result detached from the cache — sets ArrivalSHA256 to the digest of
// the result's own arrival vector.
func TestEveryResultCarriesItsDigest(t *testing.T) {
	d, src := buildDesign(t)
	key := Key{Design: DesignTag(d.Name, src), Variant: bog.AIG}
	lib := liberty.DefaultPseudoLib()
	dir := t.TempDir()
	check := func(path string, rr *RepResult) {
		t.Helper()
		if want := ArrivalDigest(rr.Arrival); rr.ArrivalSHA256 != want {
			t.Fatalf("%s: ArrivalSHA256 %q, want %q", path, rr.ArrivalSHA256, want)
		}
	}
	// An edit that left the arrivals alone could not tell a digest copied
	// from the base from a recomputed one.
	checkEdit := func(path string, base, rr *RepResult) {
		t.Helper()
		check(path, rr)
		if rr.ArrivalSHA256 == base.ArrivalSHA256 {
			t.Fatalf("%s: the edit did not change the arrival vector", path)
		}
	}

	cold := New(2).withDir(dir)
	cold.SetShards(4)
	built, err := cold.EvalRep(key, lib, FixedDesign(d))
	if err != nil {
		t.Fatal(err)
	}
	check("cold build", built)

	warm := New(2).withDir(dir)
	loaded, err := warm.EvalRep(key, lib, failingSource(t))
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.DiskHits != 1 {
		t.Fatalf("warm stats %+v, want one disk hit", st)
	}
	check("disk load", loaded)

	full, err := loaded.Edit(smallEdit(t, loaded.Graph))
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Edits != 1 || st.ShardEdits != 0 {
		t.Fatalf("stats %+v, want one full-graph edit", st)
	}
	checkEdit("full-graph edit", loaded, full)

	delta := routableEdit(t, built)
	local, err := built.Edit(delta)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.ShardEdits != 1 {
		t.Fatalf("stats %+v, want one shard-local edit", st)
	}
	checkEdit("shard-local edit", built, local)

	detached, err := built.Detached().Edit(delta)
	if err != nil {
		t.Fatal(err)
	}
	checkEdit("detached edit", built, detached)
}

// TestPersistedArrivalDigest pins the version-3 entry layout on every
// suite entry (21 designs × 4 variants), parsed by offset: the magic,
// version 3, the graph blob, which must equal bog.MarshalGraph of the cold
// build, the raw arrival fingerprint, which must equal both ArrivalDigest
// of the persisted arrival vector and the cold build's ArrivalSHA256, the
// persisted vectors, and the CRC-32C (Castagnoli) of every preceding byte.
func TestPersistedArrivalDigest(t *testing.T) {
	lib := liberty.DefaultPseudoLib()
	store := NewDirStore(t.TempDir())
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	sameBits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	e := New(0)
	e.SetCacheStore(store)
	for _, spec := range designs.All() {
		src := designs.Generate(spec)
		for _, v := range bog.Variants() {
			key := Key{Design: DesignTag(spec.Name, src), Variant: v}
			rr, err := e.EvalRep(key, lib, LazyDesign(src))
			if err != nil {
				t.Fatalf("%s/%v: %v", spec.Name, v, err)
			}
			data, err := store.Get(entryName(key, lib))
			if err != nil {
				t.Fatalf("%s/%v: %v", spec.Name, v, err)
			}
			blob := bog.MarshalGraph(rr.Graph)
			n, ep := len(rr.Graph.Nodes), len(rr.Graph.Endpoints)
			if want := 12 + len(blob) + 32 + n*(4*8+4) + ep*(3*4+8) + 4; len(data) != want {
				t.Fatalf("%s/%v: entry of %d bytes, want %d", spec.Name, v, len(data), want)
			}
			if string(data[:4]) != "RTLR" || binary.LittleEndian.Uint32(data[4:]) != 3 {
				t.Fatalf("%s/%v: header %q version %d", spec.Name, v, data[:4], binary.LittleEndian.Uint32(data[4:]))
			}
			if binary.LittleEndian.Uint32(data[8:]) != uint32(len(blob)) || !bytes.Equal(data[12:12+len(blob)], blob) {
				t.Fatalf("%s/%v: the graph blob is not MarshalGraph of the cold build", spec.Name, v)
			}
			rest := data[12+len(blob):]
			digest := hex.EncodeToString(rest[:32])
			arrival, rest := readF64s(rest[32:], n)
			if !sameBits(arrival, rr.Arrival) {
				t.Fatalf("%s/%v: the persisted arrival vector differs from the cold build's", spec.Name, v)
			}
			if want := ArrivalDigest(arrival); digest != want || digest != rr.ArrivalSHA256 {
				t.Fatalf("%s/%v: persisted fingerprint %s, recomputed %s, cold build %s", spec.Name, v, digest, want, rr.ArrivalSHA256)
			}
			load, slew, delay, fanout := rr.An.State()
			for _, want := range [][]float64{load, slew, delay} {
				var got []float64
				if got, rest = readF64s(rest, n); !sameBits(got, want) {
					t.Fatalf("%s/%v: a persisted analyzer vector differs from the cold build's", spec.Name, v)
				}
			}
			gotFanout, rest := readI32s(rest, n)
			if !slices.Equal(gotFanout, fanout) {
				t.Fatalf("%s/%v: the persisted fanout differs from the cold build's", spec.Name, v)
			}
			cones, rank := rr.Ext.State()
			for i, c := range cones {
				got := rest[12*i:]
				if int(int32(binary.LittleEndian.Uint32(got))) != c.Nodes ||
					int(int32(binary.LittleEndian.Uint32(got[4:]))) != c.DrivingRegs ||
					int(int32(binary.LittleEndian.Uint32(got[8:]))) != c.Inputs {
					t.Fatalf("%s/%v: cone[%d] differs from the cold build's", spec.Name, v, i)
				}
			}
			gotRank, rest := readF64s(rest[12*ep:], ep)
			if !sameBits(gotRank, rank) {
				t.Fatalf("%s/%v: the persisted rank percentiles differ from the cold build's", spec.Name, v)
			}
			body := data[:len(data)-len(rest)]
			if got, want := binary.LittleEndian.Uint32(rest), crc32.Checksum(body, castagnoli); got != want {
				t.Fatalf("%s/%v: checksum %08x, CRC-32C of the body %08x", spec.Name, v, got, want)
			}
		}
		e.Reset()
	}
}
