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

	// The five-design corpus is large enough for Train's inner
	// out-of-fold models, which three designs skip.
	wantOOFModelSHA256    = "193e2d343f4261da2c7f6d37f68ecde92390c50201f610ad56a7d352643c2331"
	wantOOFAnnotateSHA256 = "989208c885e8c35d637ee0159e6fecf80c01d7223e0d6dccba65a36e3ea6a8ed"
)

// TestPaperPathDigests pins the bytes of the paper's train, predict and
// annotate path: suite designs built on one engine, a model trained at
// fixed small tree counts, and the annotation of a held-out design.
// Go may fuse multiply-adds on other architectures, which moves the
// trained floats, so the digests hold on amd64 only.
func TestPaperPathDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	for _, c := range []struct {
		name             string
		train            []string
		held             string
		model, annotated string
	}{
		{"in-sample", []string{"b17", "syscdes", "b20"}, "Vex_1", wantModelSHA256, wantAnnotateSHA256},
		{"out-of-fold", []string{"b17", "syscdes", "b20", "b22", "Vex_1"}, "Vex_2", wantOOFModelSHA256, wantOOFAnnotateSHA256},
	} {
		t.Run(c.name, func(t *testing.T) {
			model, annotated := paperPath(t, c.train, c.held)
			for _, d := range []struct {
				what string
				data []byte
				want string
			}{
				{"saved model", model, c.model},
				{"annotated " + c.held, annotated, c.annotated},
			} {
				sum := sha256.Sum256(d.data)
				if got := hex.EncodeToString(sum[:]); got != d.want {
					t.Errorf("%s SHA-256 is %s, want %s", d.what, got, d.want)
				}
			}
		})
	}
}

// paperPath trains on the named suite designs and annotates the held-out
// one, returning the saved model's bytes and the annotated source.
func paperPath(t *testing.T, trainNames []string, held string) (model, annotated []byte) {
	t.Helper()
	eng := engine.New(0)
	var specs []designs.Spec
	for _, name := range append(trainNames, held) {
		spec, ok := designs.ByName(name)
		if !ok {
			t.Fatalf("no suite design %s", name)
		}
		specs = append(specs, spec)
	}
	data, err := dataset.BuildAll(specs, dataset.BuildOptions{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	train, test := data[:len(trainNames)], data[len(trainNames)]

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
	out, err := Annotate(designs.Generate(test.Spec), m.Predict(test))
	if err != nil {
		t.Fatal(err)
	}
	return saved.Bytes(), []byte(out)
}
