// Command rtlsynth runs the logic-synthesis substrate on a Verilog design:
// elaboration, AIG optimization, technology mapping onto the simulated
// NanGate-45 library, timing-driven sizing, then STA, reporting timing
// (WNS/TNS and the worst endpoints), power and area — the ground-truth
// flow RTL-Timer learns to predict.
//
// Usage:
//
//	rtlsynth -in design.v [-period 0.5] [-top name] [-worst 10]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"rtltimer/internal/elab"
	"rtltimer/internal/synth"
	"rtltimer/internal/verilog"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtlsynth: ")
	in := flag.String("in", "", "input Verilog file (required)")
	top := flag.String("top", "", "top module (default: auto-detect)")
	period := flag.Float64("period", 0.5, "clock period in ns")
	seed := flag.Int64("seed", 1, "synthesis seed")
	worst := flag.Int("worst", 10, "number of worst endpoints to list")
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*in)
	if err != nil {
		log.Fatal(err)
	}
	parsed, err := verilog.Parse(string(src))
	if err != nil {
		log.Fatal(err)
	}
	var design *elab.Design
	if *top != "" {
		design, err = elab.ElaborateModule(parsed, *top)
	} else {
		design, err = elab.Elaborate(parsed)
	}
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range design.Warnings {
		log.Printf("warning: %s", w)
	}
	res, err := synth.Run(design, synth.Options{Period: *period, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	printReport(os.Stdout, design, res, *worst)
}

// printReport writes the design, timing, power and area summary and the
// worst endpoints by arrival time. The clock and every slack come from
// the timing synth.Run computed, so they describe the period it ran at.
func printReport(w io.Writer, design *elab.Design, res *synth.Result, worst int) {
	st := design.Stats()
	fmt.Fprintf(w, "design        %s\n", design.Name)
	fmt.Fprintf(w, "rtl           %d signals, %d registers (%d bits)\n", st.Signals, st.Regs, st.RegBits)
	fmt.Fprintf(w, "netlist       %d comb cells, %d flops\n", res.Netlist.CombGates(), res.Netlist.SeqGates())
	fmt.Fprintf(w, "clock         %.3f ns\n", res.Timing.ClockPeriod)
	fmt.Fprintf(w, "timing        WNS %.3f ns, TNS %.2f ns (%d endpoints)\n",
		res.Timing.WNS, res.Timing.TNS, len(res.Netlist.Endpoints))
	fmt.Fprintf(w, "post-place    WNS %.3f ns, TNS %.2f ns\n", res.Placed.WNS, res.Placed.TNS)
	fmt.Fprintf(w, "post-opt      WNS %.3f ns, TNS %.2f ns\n", res.PostOpt.WNS, res.PostOpt.TNS)
	fmt.Fprintf(w, "area          %.1f um^2\n", res.Report.Area)
	fmt.Fprintf(w, "power         %.2f (leakage %.1f nW)\n", res.Report.Power, res.Report.Leakage)

	type epAT struct {
		ref       string
		at, slack float64
	}
	var eps []epAT
	for i := range res.Netlist.Endpoints {
		eps = append(eps, epAT{res.Netlist.Endpoints[i].Ref(), res.Timing.EndpointAT[i], res.Timing.Slack[i]})
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i].at > eps[j].at })
	fmt.Fprintf(w, "\nworst endpoints:\n")
	for i := 0; i < len(eps) && i < worst; i++ {
		fmt.Fprintf(w, "  %-32s AT %.3f ns  slack %+.3f ns\n", eps[i].ref, eps[i].at, eps[i].slack)
	}
}
