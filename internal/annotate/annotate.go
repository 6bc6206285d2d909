// Package annotate implements RTL-Timer's automatic slack annotation on
// HDL source (paper §3.5.1, Fig. 3 step 3): the original Verilog text is
// returned with a header comment recording the technology node and the
// predicted design WNS/TNS, and with every sequential signal declaration
// annotated with its predicted slack and criticality ranking group, e.g.
//
//	reg [7:0] R1;  // (R1) Slack@-0.60ns rank@g1
//
// Signals that live inside flattened sub-instances (hierarchical names
// containing '.') cannot be attached to a top-module source line and are
// reported in a trailing summary comment block instead.
package annotate

import (
	"fmt"
	"sort"
	"strings"

	"rtltimer/internal/core"
	"rtltimer/internal/verilog"
)

const (
	// techName is the technology node the header names.
	techName = "NanGate45nm-sim"
	// maxSummary bounds the trailing summary block for hierarchical
	// signals.
	maxSummary = 16
)

// Annotate returns the annotated Verilog text.
func Annotate(src string, pred *core.DesignPrediction) (string, error) {
	parsed, err := verilog.Parse(src)
	if err != nil {
		return "", fmt.Errorf("annotate: %w", err)
	}
	top := parsed.Top()
	if top == nil {
		return "", fmt.Errorf("annotate: no top module")
	}

	// Map declaration line -> signals declared there (top level only).
	byLine := map[int][]string{}
	for _, d := range top.Decls {
		for _, name := range d.Names {
			if _, ok := pred.SignalByName(name); ok {
				byLine[d.Line] = append(byLine[d.Line], name)
			}
		}
	}

	var hier []core.SignalPrediction
	local := map[string]bool{}
	for _, names := range byLine {
		for _, n := range names {
			local[n] = true
		}
	}
	for _, s := range pred.Signals {
		if !local[s.Name] {
			hier = append(hier, s)
		}
	}
	sort.Slice(hier, func(i, j int) bool { return hier[i].Slack < hier[j].Slack })

	lines := strings.Split(src, "\n")
	var out strings.Builder
	fmt.Fprintf(&out, "// Tech: %s\n", techName)
	fmt.Fprintf(&out, "// WNS: %.2fns, TNS: %.2fns  (RTL-Timer prediction @ %.2fns clock)\n",
		pred.WNS, pred.TNS, pred.Period)
	for ln, line := range lines {
		out.WriteString(line)
		if names, ok := byLine[ln+1]; ok {
			sort.Strings(names)
			var parts []string
			for _, name := range names {
				s, _ := pred.SignalByName(name)
				parts = append(parts, fmt.Sprintf("(%s) Slack@%.2fns rank@g%d", name, s.Slack, s.Group+1))
			}
			out.WriteString("  // " + strings.Join(parts, " "))
		}
		if ln < len(lines)-1 {
			out.WriteByte('\n')
		}
	}
	if len(hier) > 0 {
		out.WriteString("\n// RTL-Timer: flattened sub-instance signals (worst first):\n")
		n := min(len(hier), maxSummary)
		for _, s := range hier[:n] {
			fmt.Fprintf(&out, "//   %-32s Slack@%.2fns rank@g%d\n", s.Name, s.Slack, s.Group+1)
		}
		if len(hier) > n {
			fmt.Fprintf(&out, "//   ... %d more\n", len(hier)-n)
		}
	}
	return out.String(), nil
}
