package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestFlagIsUsageError: rtllint takes no flags, so any argument starting
// with "-" exits with status 1 and a usage line before anything is loaded.
// `go vet -vettool=rtllint` opens by querying its tool with such flags
// (`-flags`, `-V=full`), so such a run fails at once on the same line.
func TestFlagIsUsageError(t *testing.T) {
	for _, args := range [][]string{{"-V=full"}, {"-flags"}, {"./...", "-json"}} {
		stderr := captureStderr(t, func() {
			if code := standalone(args); code != 1 {
				t.Errorf("standalone(%q) = %d, want 1", args, code)
			}
		})
		if !strings.Contains(stderr, "usage: rtllint [dir]") {
			t.Errorf("standalone(%q) stderr %q names no usage line", args, stderr)
		}
	}
}

// captureStderr runs f with os.Stderr redirected and returns what f wrote.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = saved }()
	f()
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
