// Shared pseudo-STA renderers: the sweep/fmax text output and the
// representation-building fan-out used by both the one-shot rtltimer CLI
// and the resident rtltimerd daemon. Keeping exactly one implementation is
// what makes the daemon's determinism contract cheap to state: a /sweep or
// /fmax response carries the same bytes the CLI would print for the same
// query, because both call these functions.
package service

import (
	"context"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"rtltimer/internal/bog"
	"rtltimer/internal/engine"
	"rtltimer/internal/liberty"
)

// BuildSweepReps evaluates all four BOG variants of the target through the
// engine's two-tier representation cache. Elaboration is lazy and shared:
// the design is parsed and elaborated at most once, and only if some
// variant actually misses both cache tiers — a fully warm run never
// touches the Verilog frontend at all. ctx bounds the caller's *wait*
// only: per the engine's cancellation contract (cancel.go) the builds
// themselves run detached to completion and stay cached, so a canceled
// sweep never poisons or duplicates work for the next caller.
func BuildSweepReps(ctx context.Context, eng *engine.Engine, name, src string) (map[bog.Variant]*engine.RepResult, error) {
	return buildSweepReps(ctx, eng, engine.DesignTag(name, src), src, bog.Variants())
}

// buildSweepReps is BuildSweepReps for a caller that already holds the
// design's tag (engine.DesignTag of its name and src), such as the
// service's memo of built-in benchmarks, and that needs only the listed
// variants: an /eval of a variant subset resolves no other.
func buildSweepReps(ctx context.Context, eng *engine.Engine, tag, src string, variants []bog.Variant) (map[bog.Variant]*engine.RepResult, error) {
	lazyDesign := engine.LazyDesign(src)
	lib := liberty.DefaultPseudoLib()
	reps := make([]*engine.RepResult, len(variants))
	err := eng.ForEachErr(len(variants), func(vi int) error {
		rr, rerr := eng.EvalRepCtx(ctx, engine.Key{Design: tag, Variant: variants[vi]}, lib, lazyDesign)
		reps[vi] = rr
		return rerr
	})
	if err != nil {
		return nil, err
	}
	out := map[bog.Variant]*engine.RepResult{}
	for vi, v := range variants {
		out[v] = reps[vi]
	}
	return out, nil
}

// maxSweepSteps bounds the points of one sweep. Each point renders one
// line of every variant's WNS and TNS, so the answer and the allocation
// behind it grow linearly with the points, whatever the request's size:
// about 1 MB of text and 15 MB of allocation per 10,000 points.
const maxSweepSteps = 10_000

// ParseSweep parses and validates a lo:hi:steps period range into the
// period list: bounds must be finite, positive and strictly increasing,
// and a sweep needs at least two points (a single period is not a curve —
// use a single-period query instead of a degenerate sweep) and at most
// maxSweepSteps.
func ParseSweep(s string) ([]float64, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("-sweep wants lo:hi:steps, got %q", s)
	}
	lo, err1 := strconv.ParseFloat(parts[0], 64)
	hi, err2 := strconv.ParseFloat(parts[1], 64)
	steps, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, fmt.Errorf("-sweep wants numeric lo:hi:steps, got %q", s)
	}
	// The positive comparisons reject NaN bounds too (any NaN compare is
	// false), which `lo <= 0 || hi <= lo` would let through.
	if !(lo > 0 && hi > lo) || math.IsInf(hi, 1) {
		return nil, fmt.Errorf("-sweep wants finite positive bounds with lo < hi, got %q", s)
	}
	if steps < 2 {
		return nil, fmt.Errorf("-sweep wants steps >= 2 (a curve needs at least its two endpoints), got %q", s)
	}
	if steps > maxSweepSteps {
		return nil, fmt.Errorf("-sweep wants steps <= %d, got %q", maxSweepSteps, s)
	}
	periods := make([]float64, steps)
	for i := range periods {
		periods[i] = lo + (hi-lo)*float64(i)/float64(steps-1)
	}
	// The periods rise with i, so only the last can have overflowed: near
	// the largest float64, (hi-lo)*i does before the division.
	if math.IsInf(periods[steps-1], 1) {
		return nil, fmt.Errorf("-sweep wants a range whose steps stay finite, got %q", s)
	}
	return periods, nil
}

// RenderSweep prints the WNS/TNS-vs-period curve of every variant.
func RenderSweep(w io.Writer, name string, reps map[bog.Variant]*engine.RepResult, periods []float64) {
	fmt.Fprintf(w, "design %s: pseudo-STA period sweep (%d points)\n\n", name, len(periods))
	fmt.Fprintf(w, "%-10s", "period")
	for _, v := range bog.Variants() {
		fmt.Fprintf(w, "  %9s  %9s", v.String()+" WNS", v.String()+" TNS")
	}
	fmt.Fprintln(w)
	for _, p := range periods {
		fmt.Fprintf(w, "%-10.3f", p)
		for _, v := range bog.Variants() {
			wns, tns := reps[v].Summary(p)
			fmt.Fprintf(w, "  %9.3f  %9.2f", wns, tns)
		}
		fmt.Fprintln(w)
	}
}

// FmaxSearch returns the least period with WNS >= 0 on one cached
// representation: the closed-form critical period (worst endpoint arrival
// plus setup), stepped up one ulp when rounding leaves Summary's WNS
// there below zero. One step suffices: the next float above a sum that
// rounded down exceeds the exact sum. Pseudo-STA arrivals do not depend
// on the period, so nothing is searched and nothing is allocated.
func FmaxSearch(rr *engine.RepResult) float64 {
	p := rr.An.CriticalPeriod(rr.Arrival)
	if wns, _ := rr.Summary(p); wns < 0 {
		p = math.Nextafter(p, math.Inf(1))
	}
	return p
}

// fmaxVariants runs FmaxSearch once per variant, in bog.Variants order.
// A variant without timing endpoints has no critical period and reports
// infeasible.
func fmaxVariants(reps map[bog.Variant]*engine.RepResult) []FmaxVariant {
	out := make([]FmaxVariant, 0, len(bog.Variants()))
	for _, v := range bog.Variants() {
		fv := FmaxVariant{Variant: v.String()}
		if rr := reps[v]; len(rr.Graph.Endpoints) > 0 {
			p := FmaxSearch(rr)
			fv.Feasible, fv.Period, fv.FmaxGHz = true, p, 1/p
		}
		out = append(out, fv)
	}
	return out
}

// RenderFmax reports the maximum frequency per variant (FmaxSearch).
func RenderFmax(w io.Writer, name string, reps map[bog.Variant]*engine.RepResult) {
	renderFmax(w, name, fmaxVariants(reps))
}

// renderFmax prints the fmax report from results already computed
// (fmaxVariants), so a caller that also returns them computes them once.
func renderFmax(w io.Writer, name string, results []FmaxVariant) {
	fmt.Fprintf(w, "design %s: pseudo-STA maximum frequency\n\n", name)
	for i, v := range bog.Variants() {
		if fv := results[i]; fv.Feasible {
			fmt.Fprintf(w, "  %-5s critical period %.4f ns  ->  fmax %.3f GHz\n", v, fv.Period, fv.FmaxGHz)
		} else {
			fmt.Fprintf(w, "  %-5s no timing endpoints (design is unconstrained)\n", v)
		}
	}
}
