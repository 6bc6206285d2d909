package rtllint_test

import (
	"os"
	"path/filepath"
	"testing"

	"rtltimer/internal/lint/driver"
	"rtltimer/internal/lint/load"
	"rtltimer/internal/lint/rtllint"
)

// TestRepositoryIsClean runs the full determinism-lint suite over this
// repository's own source tree and requires zero findings and zero stale
// lint.allow entries. This is the contract's local enforcement point: a
// violation fails `go test ./...` even without the CI rtllint step.
func TestRepositoryIsClean(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	runner := driver.New()
	_, pkgs, err := load.LoadModulePackages(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages from %s; module walk is broken", len(pkgs), root)
	}
	findings, err := runner.Run(pkgs, rtllint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
	}
	for path, entries := range runner.Unused() {
		for _, e := range entries {
			t.Errorf("%s:%d: stale lint.allow entry (%s %s %s): no diagnostic matches it",
				path, e.Line, e.Analyzer, e.File, e.Func)
		}
	}
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
