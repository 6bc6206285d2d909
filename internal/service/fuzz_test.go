package service

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/engine"
	"rtltimer/internal/features"
	"rtltimer/internal/liberty"
	"rtltimer/internal/sta"
)

// fuzzBase is the SOG representation of the suite's smallest design
// (b22, 689 nodes), built once per process and detached from its engine
// so every Edit derives instead of hitting a cache slot.
var fuzzBase = sync.OnceValues(func() (*engine.RepResult, error) {
	spec, ok := designs.ByName("b22")
	if !ok {
		return nil, errors.New("no b22 in the suite")
	}
	src := designs.Generate(spec)
	key := engine.Key{Design: engine.DesignTag(spec.Name, src), Variant: bog.SOG}
	rr, err := engine.New(1).EvalRep(key, liberty.DefaultPseudoLib(), engine.LazyDesign(src))
	if err != nil {
		return nil, err
	}
	return rr.Detached(), nil
})

// FuzzSessionEdit drives the /session/edit wire path on one "edits"
// array: strict JSON decoding into EditSpecs, parseDelta, then Edit on
// the fuzz base. Nothing may panic, a contained panic (*engine.PanicError)
// is a failure too, and a batch Edit accepts must derive bit-identically
// to a fresh analysis and extractor of the edited clone.
func FuzzSessionEdit(f *testing.F) {
	f.Fuzz(func(t *testing.T, edits []byte) {
		var specs []EditSpec
		if decodeStrict(bytes.NewReader(edits), &specs) != nil {
			return
		}
		delta, err := parseDelta(specs)
		if err != nil {
			return
		}
		base, err := fuzzBase()
		if err != nil {
			t.Fatal(err)
		}
		got, err := base.Edit(delta)
		if pe := (*engine.PanicError)(nil); errors.As(err, &pe) {
			t.Fatalf("delta %v panicked: %v\n%s", delta, pe.Value, pe.Stack)
		}
		if err != nil {
			return
		}
		g := base.Graph.Clone()
		if _, err := g.Apply(delta); err != nil {
			t.Fatalf("delta %v: Edit accepted what Apply rejects: %v", delta, err)
		}
		an := sta.NewAnalyzer(g, liberty.DefaultPseudoLib())
		arr := an.Arrivals(1)
		if len(arr) != len(got.Arrival) {
			t.Fatalf("delta %v: %d arrivals, want %d", delta, len(got.Arrival), len(arr))
		}
		for i := range arr {
			if math.Float64bits(arr[i]) != math.Float64bits(got.Arrival[i]) {
				t.Fatalf("delta %v: arrival %d = %v, want %v", delta, i, got.Arrival[i], arr[i])
			}
		}
		wantCones, wantRank := features.NewExtractor(g, an.At(arr, 0)).State()
		cones, rank := got.Ext.State()
		for ep := range wantCones {
			if cones[ep] != wantCones[ep] || math.Float64bits(rank[ep]) != math.Float64bits(wantRank[ep]) {
				t.Fatalf("delta %v: endpoint %d cone %+v rank %v, want %+v rank %v",
					delta, ep, cones[ep], rank[ep], wantCones[ep], wantRank[ep])
			}
		}
	})
}
