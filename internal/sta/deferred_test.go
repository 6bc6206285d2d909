package sta_test

import (
	"context"
	"errors"
	"testing"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/elab"
	"rtltimer/internal/engine"
	"rtltimer/internal/liberty"
	"rtltimer/internal/service"
	"rtltimer/internal/sta"
)

// TestRestoredTimingQueriesBuildNoStaticState: a disk-restored analyzer
// defers its static state to first use, and a timing query is never that
// use. Over every suite entry restored from disk, Summary and
// CriticalPeriod on an engine, and /eval, /sweep and /fmax on a service,
// leave every analyzer's static state unbuilt; an At then builds it, so
// the probe can see a build.
func TestRestoredTimingQueriesBuildNoStaticState(t *testing.T) {
	dir := t.TempDir()
	lib := liberty.DefaultPseudoLib()
	var keys []engine.Key
	cold := engine.New(0)
	cold.SetCacheDir(dir)
	for _, spec := range designs.All() {
		src := designs.Generate(spec)
		for _, v := range bog.Variants() {
			key := engine.Key{Design: engine.DesignTag(spec.Name, src), Variant: v}
			if _, err := cold.EvalRep(key, lib, engine.LazyDesign(src)); err != nil {
				t.Fatalf("%s/%v: %v", spec.Name, v, err)
			}
			keys = append(keys, key)
		}
	}
	noBuild := func() (*elab.Design, error) {
		t.Error("a restored entry reached its design source")
		return nil, errors.New("unexpected build")
	}
	unbuilt := func(what string, eng *engine.Engine) []*engine.RepResult {
		t.Helper()
		reps := make([]*engine.RepResult, len(keys))
		for i, key := range keys {
			rr, err := eng.EvalRep(key, lib, noBuild)
			if err != nil {
				t.Fatal(err)
			}
			if sta.StaticBuilt(rr.An) {
				t.Fatalf("%s built the static state of %s/%v", what, key.Design, key.Variant)
			}
			reps[i] = rr
		}
		if st := eng.Stats(); st.Builds != 0 || st.DiskHits != int64(len(keys)) {
			t.Fatalf("%s: stats %+v, want %d disk hits and no build", what, st, len(keys))
		}
		return reps
	}

	warm := engine.New(0)
	warm.SetCacheDir(dir)
	for _, rr := range unbuilt("a disk restore", warm) {
		rr.Summary(0.5)
		rr.An.CriticalPeriod(rr.Arrival)
	}
	reps := unbuilt("Summary or CriticalPeriod", warm)

	svc, err := service.New(service.Config{Jobs: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	for _, spec := range designs.All() {
		ref := service.DesignRef{Bench: spec.Name}
		if _, err := svc.Eval(ctx, service.EvalRequest{Design: ref, Period: 0.5}); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Sweep(ctx, service.SweepRequest{Design: ref, Sweep: "0.3:0.9:13"}); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Fmax(ctx, service.FmaxRequest{Design: ref}); err != nil {
			t.Fatal(err)
		}
	}
	unbuilt("the service's Eval, Sweep or Fmax", svc.Engine())

	reps[0].At(0.5)
	if !sta.StaticBuilt(reps[0].An) {
		t.Fatal("At left the static state unbuilt")
	}
}
