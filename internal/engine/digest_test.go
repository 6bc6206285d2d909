package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
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
