package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
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

// requestTypes makes one zero value of each POST request type: the typed
// requests and the body /session/close decodes.
var requestTypes = []func() any{
	func() any { return new(EvalRequest) },
	func() any { return new(SweepRequest) },
	func() any { return new(FmaxRequest) },
	func() any { return new(AnnotateRequest) },
	func() any { return new(SessionOpenRequest) },
	func() any { return new(SessionEditRequest) },
	func() any { return new(SessionEvalRequest) },
	func() any {
		return new(struct {
			Session string `json:"session"`
		})
	},
}

// oracleDecode is the retained reference for decodeStrict: the whole body
// decoded in memory with unknown fields refused, then nothing but JSON
// whitespace allowed after the value's end.
func oracleDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("trailing %q", rest[0])
	}
	return nil
}

// FuzzRequestDecode feeds arbitrary bodies through decodeStrict into every
// POST request type and checks it against oracleDecode: both accept or
// both reject, an accepted value is the same, and nothing panics. A sweep
// an accepted SweepRequest names that ParseSweep accepts has exactly
// steps finite, positive, non-decreasing periods.
func FuzzRequestDecode(f *testing.F) {
	for _, body := range []string{
		`{"design":{"bench":"b17"},"period":0.5,"variants":["SOG","xag"]}`,
		`{"design":{"bench":"b17"},"sweep":"0.3:0.9:13"}`,
		`{"design":{"src":"module m(input a, output b); assign b = a; endmodule","name":"m"}}`,
		`{"design":{"bench":"b17"},"period":0}`,
		`{"design":{"bench":"b17"},"variant":"SOG"}`,
		`{"session":"s1","edits":[{"kind":"set-op","node":3,"op":"or"},{"kind":"insert","op":"and","fanin":[1,2]}]}`,
		`{"session":"s1","period":0.5}`,
		`{"session":"s1"}`,
		`{"session":"s1"} {"session":"s2"}`,
		`{"design":{"bench":"b17"},"sweep":"1:1.7e308:3"}`,
		`{"session":"s1"}` + strings.Repeat(" ", 5<<10) + "x",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, mk := range requestTypes {
			got, want := mk(), mk()
			err := decodeStrict(bytes.NewReader(body), got)
			oerr := oracleDecode(body, want)
			if (err == nil) != (oerr == nil) {
				t.Fatalf("%T: decodeStrict says %v, the oracle %v", got, err, oerr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%T: decodeStrict gave %+v, the oracle %+v", got, got, want)
			}
			if req, ok := got.(*SweepRequest); ok {
				checkSweep(t, req.Sweep)
			}
		}
	})
}

// checkSweep requires any sweep ParseSweep accepts to hold its steps count
// of finite, positive, non-decreasing periods.
func checkSweep(t *testing.T, sweep string) {
	t.Helper()
	periods, err := ParseSweep(sweep)
	if err != nil {
		return
	}
	parts := strings.Split(sweep, ":")
	if steps, _ := strconv.Atoi(parts[len(parts)-1]); len(periods) != steps {
		t.Fatalf("sweep %q: %d periods", sweep, len(periods))
	}
	for i, p := range periods {
		if !(p > 0) || math.IsInf(p, 1) || (i > 0 && p < periods[i-1]) {
			t.Fatalf("sweep %q: period %d is %v after %v", sweep, i, p, periods[max(i-1, 0)])
		}
	}
}
