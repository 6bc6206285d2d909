package annotate

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"rtltimer/internal/core"
	"rtltimer/internal/dataset"
	"rtltimer/internal/designs"
	"rtltimer/internal/engine"
)

// Paper-path digests: the SHA-256 of the saved model and of the annotated
// held-out design that TestPaperPathDigests produces. A change that moves
// either moves the bytes every saved model or annotation carries.
const (
	wantModelSHA256    = "e7dac9e85210a64cfe41a4952c672c881f6aa7286be93228b3ce89444adb4c87"
	wantAnnotateSHA256 = "14a94be3478251b3401c00d03b4db055688e4761afe1808f9134b8af3809a22b"
)

// TestPaperPathDigests pins the bytes of the paper's train, predict and
// annotate path: three suite designs built on one engine, a model trained
// at fixed small tree counts, and the annotation of a held-out design.
// Go may fuse multiply-adds on other architectures, which moves the
// trained floats, so the digests hold on amd64 only.
func TestPaperPathDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	eng := engine.New(0)
	var specs []designs.Spec
	for _, name := range []string{"b17", "syscdes", "b20", "Vex_1"} {
		spec, ok := designs.ByName(name)
		if !ok {
			t.Fatalf("no suite design %s", name)
		}
		specs = append(specs, spec)
	}
	data, err := dataset.BuildAll(specs, dataset.BuildOptions{Seed: 1, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	train, held := data[:3], data[3]

	opts := core.DefaultOptions()
	opts.BitTreeOpts.NumTrees = 40
	opts.EnsembleOpts.NumTrees = 40
	opts.SignalOpts.NumTrees = 40
	opts.LTROpts.NumTrees = 30
	opts.Seed = 1
	opts.SetEngine(eng)
	m, err := core.Train(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		t.Fatal(err)
	}
	out, err := Annotate(designs.Generate(held.Spec), m.Predict(held))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		data []byte
		want string
	}{
		{"saved model", saved.Bytes(), wantModelSHA256},
		{"annotated " + held.Spec.Name, []byte(out), wantAnnotateSHA256},
	} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s SHA-256 is %s, want %s", c.what, got, c.want)
		}
	}
}
