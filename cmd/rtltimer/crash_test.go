package main

// Real-process fault harnesses for the cache fabric: unlike the in-process
// torture suite (internal/engine/torture_test.go), these re-exec the test
// binary so a build can be killed with SIGKILL mid-write and two genuinely
// separate processes can race one cache directory. TestMain dispatches the
// child roles via environment variables.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/engine"
	"rtltimer/internal/liberty"
)

const (
	crashChildEnv = "RTLTIMER_TEST_CRASH_BUILD_DIR"
	raceChildEnv  = "RTLTIMER_TEST_RACE_BUILD_DIR"
	raceOrderEnv  = "RTLTIMER_TEST_RACE_ORDER"
)

func TestMain(m *testing.M) {
	if dir := os.Getenv(crashChildEnv); dir != "" {
		crashChildBuild(dir)
		return
	}
	if dir := os.Getenv(raceChildEnv); dir != "" {
		raceChildBuild(dir, os.Getenv(raceOrderEnv) == "reverse")
		return
	}
	os.Exit(m.Run())
}

// crashDesign is the corpus the crash child builds: the largest benchmark,
// so each variant's build leaves the parent a wide window to land SIGKILL
// between a temp-file write and the publishing rename.
func crashDesign() designs.Spec {
	spec, ok := designs.ByName("Rocket3")
	if !ok {
		panic("Rocket3 missing from the corpus")
	}
	return spec
}

// crashChildBuild is the victim: a serial cold corpus build, exactly what
// `rtltimer -cache-dir ...` does. The parent kills it after the first
// entry publishes.
func crashChildBuild(dir string) {
	spec := crashDesign()
	src := designs.Generate(spec)
	eng := engine.New(1)
	eng.SetCacheDir(dir)
	tag := engine.DesignTag(spec.Name, src)
	lib := liberty.DefaultPseudoLib()
	for _, v := range bog.Variants() {
		if _, err := eng.EvalRep(engine.Key{Design: tag, Variant: v}, lib, engine.LazyDesign(src)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// corpusResults builds (or restores) the crash corpus on one engine and
// returns a WNS/TNS/slack fingerprint per variant for bit-identity checks.
func corpusResults(t *testing.T, eng *engine.Engine, spec designs.Spec, src string) map[bog.Variant][]uint64 {
	t.Helper()
	tag := engine.DesignTag(spec.Name, src)
	lib := liberty.DefaultPseudoLib()
	out := make(map[bog.Variant][]uint64)
	for _, v := range bog.Variants() {
		rr, err := eng.EvalRep(engine.Key{Design: tag, Variant: v}, lib, engine.LazyDesign(src))
		if err != nil {
			t.Fatal(err)
		}
		var fp []uint64
		for _, p := range []float64{0.4, 0.8} {
			r := rr.At(p)
			fp = append(fp, math.Float64bits(r.WNS), math.Float64bits(r.TNS))
			for _, s := range r.Slack {
				fp = append(fp, math.Float64bits(s))
			}
		}
		out[v] = fp
	}
	return out
}

// backdateTemps ages every leftover ".rep-*" temp file in dir by a day,
// past the hour a scrub waits before reclaiming one, so the scrub treats
// a known-dead process's leftovers as stale.
func backdateTemps(t *testing.T, dir string) {
	t.Helper()
	temps, _ := filepath.Glob(filepath.Join(dir, ".rep-*"))
	old := time.Now().Add(-24 * time.Hour)
	for _, p := range temps {
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
}

// requireSameResults fails the test unless got carries the same
// WNS/TNS/slack bits as the undisturbed reference for every variant.
func requireSameResults(t *testing.T, design string, ref, got map[bog.Variant][]uint64) {
	t.Helper()
	for _, v := range bog.Variants() {
		if len(ref[v]) != len(got[v]) {
			t.Fatalf("%s %v: fingerprint length %d vs %d", design, v, len(ref[v]), len(got[v]))
		}
		for i := range ref[v] {
			if ref[v][i] != got[v][i] {
				t.Fatalf("%s %v: result diverges from the undisturbed reference at word %d", design, v, i)
			}
		}
	}
}

// TestCrashRecoveryMidBuild kills a real child process mid-corpus-build
// with SIGKILL, then proves the three recovery properties: a scrub pass
// reclaims whatever the corpse left (temps) and quarantines nothing
// valid; a recovery run completes the corpus bit-identical to an
// undisturbed reference; and a third run is served entirely from disk.
func TestCrashRecoveryMidBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process crash harness")
	}
	dir := t.TempDir()
	spec := crashDesign()
	src := designs.Generate(spec)

	child := exec.Command(os.Args[0])
	child.Env = append(os.Environ(), crashChildEnv+"="+dir)
	var childErr bytes.Buffer
	child.Stderr = &childErr
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill as soon as the first entry publishes: the child is then
	// mid-build on the second variant.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if ents, _ := filepath.Glob(filepath.Join(dir, "*.rep")); len(ents) > 0 {
			break
		}
		if time.Now().After(deadline) {
			child.Process.Kill()
			child.Wait()
			t.Fatalf("child published nothing before the deadline; stderr: %s", childErr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.Wait() // reap; the kill makes the exit status irrelevant

	published, _ := filepath.Glob(filepath.Join(dir, "*.rep"))
	if len(published) == 0 || len(published) >= len(bog.Variants()) {
		t.Fatalf("kill landed outside the mid-build window: %d entries published", len(published))
	}

	// Recovery step 1: scrub. Every stale temp the corpse left is
	// reclaimed — back-dating marks each leftover stale — and every
	// published entry must validate: a SIGKILL can never leave a torn
	// entry visible, because publishes are temp+rename.
	backdateTemps(t, dir)
	report, err := engine.ScrubCache(dir, engine.ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Quarantined != 0 {
		t.Fatalf("scrub quarantined %d entries after a SIGKILL — atomic publish is broken: %+v", report.Quarantined, report)
	}
	if report.Valid != len(published) {
		t.Fatalf("scrub validated %d entries, want the %d published", report.Valid, len(published))
	}
	if temps, _ := filepath.Glob(filepath.Join(dir, ".rep-*")); len(temps) != 0 {
		t.Fatalf("temp files survived the scrub: %v", temps)
	}

	// Undisturbed reference in a private directory.
	refEng := engine.New(2)
	refEng.SetCacheDir(filepath.Join(t.TempDir(), "ref"))
	ref := corpusResults(t, refEng, spec, src)

	// Recovery step 2: a fresh engine completes the corpus — partial disk
	// hits, the rest rebuilt — bit-identical to the reference.
	rec := engine.New(2)
	rec.SetCacheDir(dir)
	requireSameResults(t, spec.Name, ref, corpusResults(t, rec, spec, src))
	st := rec.Stats()
	if st.DiskHits != int64(len(published)) || st.Builds != int64(len(bog.Variants())-len(published)) {
		t.Fatalf("recovery stats %+v, want %d hits + %d rebuilds", st, len(published), len(bog.Variants())-len(published))
	}

	// Recovery step 3: the cache is whole again — zero builds.
	warm := engine.New(2)
	warm.SetCacheDir(dir)
	corpusResults(t, warm, spec, src)
	if st := warm.Stats(); st.Builds != 0 || st.DiskHits != int64(len(bog.Variants())) {
		t.Fatalf("post-recovery run not fully warm: %+v", st)
	}
}

// raceCorpus is the shared work list of the two racing processes: three
// mid-size designs x four variants, big enough that neither process can
// finish before the other starts contributing.
func raceCorpus() []designs.Spec {
	var specs []designs.Spec
	for _, name := range []string{"syscaes", "Vex_2", "b17"} {
		spec, ok := designs.ByName(name)
		if !ok {
			panic("missing corpus design " + name)
		}
		specs = append(specs, spec)
	}
	return specs
}

// raceChildBuild is one of two racing processes: it gates on the parent's
// "go" file (so exec latency cannot skew the start) and walks the corpus
// in the given order, building whatever it misses in the shared directory.
func raceChildBuild(dir string, reverse bool) {
	gate := filepath.Join(dir, "go-signal")
	for {
		if _, err := os.Stat(gate); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	type job struct {
		spec designs.Spec
		v    bog.Variant
	}
	var jobs []job
	for _, spec := range raceCorpus() {
		for _, v := range bog.Variants() {
			jobs = append(jobs, job{spec, v})
		}
	}
	if reverse {
		for i, j := 0, len(jobs)-1; i < j; i, j = i+1, j-1 {
			jobs[i], jobs[j] = jobs[j], jobs[i]
		}
	}
	eng := engine.New(2)
	eng.SetCacheDir(dir)
	lib := liberty.DefaultPseudoLib()
	for _, j := range jobs {
		src := designs.Generate(j.spec)
		key := engine.Key{Design: engine.DesignTag(j.spec.Name, src), Variant: j.v}
		if _, err := eng.EvalRep(key, lib, engine.LazyDesign(src)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// TestTwoProcessesShareOneCacheDir races two real rtltimer-shaped
// processes on one cache directory, walking the corpus in opposite
// orders. Each builds what it misses, so an entry may be built by both;
// publishes are atomic and deterministic, so that costs time, never
// correctness. Both processes must exit cleanly, the directory must hold
// the whole corpus with every entry valid and no temp file left behind,
// and a warm run must serve it from disk bit-identical to an undisturbed
// build in a private directory.
func TestTwoProcessesShareOneCacheDir(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process race harness")
	}
	dir := t.TempDir()
	spawn := func(order string) *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), raceChildEnv+"="+dir, raceOrderEnv+"="+order)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}
	fwd := spawn("forward")
	rev := spawn("reverse")
	// Both children are alive and polling; open the gate.
	if err := os.WriteFile(filepath.Join(dir, "go-signal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fwd.Wait(); err != nil {
		t.Fatalf("forward child: %v", err)
	}
	if err := rev.Wait(); err != nil {
		t.Fatalf("reverse child: %v", err)
	}

	// The shared directory now holds the whole corpus, every entry valid.
	total := int64(len(raceCorpus()) * len(bog.Variants()))
	backdateTemps(t, dir)
	report, err := engine.ScrubCache(dir, engine.ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Valid != int(total) || report.Quarantined != 0 || report.TempsReclaimed != 0 {
		t.Fatalf("post-race scrub %+v, want %d valid, none quarantined and no temps left by clean exits", report, total)
	}
	if temps, _ := filepath.Glob(filepath.Join(dir, ".rep-*")); len(temps) != 0 {
		t.Fatalf("temp files survived the scrub: %v", temps)
	}

	refEng := engine.New(2)
	refEng.SetCacheDir(filepath.Join(t.TempDir(), "ref"))
	warm := engine.New(2)
	warm.SetCacheDir(dir)
	for _, spec := range raceCorpus() {
		src := designs.Generate(spec)
		requireSameResults(t, spec.Name, corpusResults(t, refEng, spec, src), corpusResults(t, warm, spec, src))
	}
	if st := warm.Stats(); st.Builds != 0 || st.DiskHits != total {
		t.Fatalf("post-race warm run %+v, want %d pure disk hits", st, total)
	}
}
