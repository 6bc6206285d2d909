// Package rtllint assembles the determinism-lint suite: the analyzers
// that mechanically enforce the engine's contracts (see ROADMAP standing
// constraints). cmd/rtllint runs the suite over the whole module; the
// self-test in this package runs the same check on every `go test`, so the
// contract holds even where CI is not in the loop. Both fail on findings
// and on stale lint.allow entries.
package rtllint

import (
	"rtltimer/internal/lint/adhocgo"
	"rtltimer/internal/lint/analysis"
	"rtltimer/internal/lint/floatorder"
	"rtltimer/internal/lint/maporder"
	"rtltimer/internal/lint/nondeterm"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		adhocgo.Analyzer,
		floatorder.Analyzer,
		maporder.Analyzer,
		nondeterm.Analyzer,
	}
}
