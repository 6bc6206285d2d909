// Command rtllint is the determinism-lint multichecker for this
// repository: it runs the internal/lint analyzers (adhocgo, floatorder,
// maporder, nondeterm) that mechanically enforce the engine's contracts.
//
// Usage:
//
//	rtllint [dir]   lint the module rooted at dir (default: the module
//	                containing the current directory), including
//	                stale-suppression detection over lint.allow; a
//	                trailing "/..." (as in ./...) is accepted and ignored.
//
// rtllint takes no flags: an argument starting with "-" is a usage error.
// It is not a `go vet -vettool` plugin, so such a run fails at once.
//
// Exit status: 0 clean, 1 usage or operational error, 2 findings.
//
// Suppressions live exclusively in lint.allow at the module root
// (`<analyzer> <file> <func> # justification`); there are no inline
// nolint comments.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rtltimer/internal/lint/driver"
	"rtltimer/internal/lint/load"
	"rtltimer/internal/lint/rtllint"
)

func main() {
	os.Exit(standalone(os.Args[1:]))
}

// standalone lints a whole module tree from source and returns the exit
// status. Patterns beyond an optional root directory are not needed: the
// suite is repo-scoped by design.
func standalone(args []string) int {
	root := "."
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			fmt.Fprintf(os.Stderr, "rtllint: unknown flag %s\nusage: rtllint [dir]\n", a)
			return 1
		}
		root = strings.TrimSuffix(a, "/...")
	}
	root, err := findModuleRoot(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtllint:", err)
		return 1
	}
	runner := driver.New()
	_, pkgs, err := load.LoadModulePackages(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtllint:", err)
		return 1
	}
	findings, err := runner.Run(pkgs, rtllint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtllint:", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", f.Pos, f.Analyzer, f.Message)
	}
	bad := len(findings) > 0
	// A whole-module run sees every diagnostic, so an unused allowlist
	// entry is a stale suppression: the sanctioned site is gone and the
	// entry must go with it.
	unused := runner.Unused()
	paths := make([]string, 0, len(unused))
	for path := range unused {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		for _, e := range unused[path] {
			fmt.Fprintf(os.Stderr, "%s:%d: stale lint.allow entry %q (%s %s): no diagnostic matches it\n",
				path, e.Line, e.Analyzer+" "+e.File+" "+e.Func, e.Analyzer, e.Justification)
			bad = true
		}
	}
	if bad {
		return 2
	}
	return 0
}

func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
