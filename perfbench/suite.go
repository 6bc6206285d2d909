package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"

	"rtltimer/internal/bog"
	"rtltimer/internal/designs"
	"rtltimer/internal/engine"
	"rtltimer/internal/liberty"
	"rtltimer/internal/service"
	"rtltimer/internal/sta"
)

// design is one member of the 21-design suite with its generated source.
type design struct {
	name string
	src  string
}

// loadSuite returns the suite, or with a comma-separated list of names
// only those designs (quick runs and the self-test).
func loadSuite(only string) ([]design, error) {
	var out []design
	if only == "" {
		for _, sp := range designs.All() {
			out = append(out, design{name: sp.Name, src: designs.Generate(sp)})
		}
		return out, nil
	}
	for _, name := range strings.Split(only, ",") {
		sp, ok := designs.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown design %q", name)
		}
		out = append(out, design{name: sp.Name, src: designs.Generate(sp)})
	}
	return out, nil
}

// suiteSize is the full suite's design count. Op counts scale with it
// whatever subset runs, so a subset keeps each design's share of a run.
var suiteSize = len(designs.All())

// evalPeriods are the clock periods (ns) single-period queries draw from.
// A fixed list keeps the set of distinct answers small enough to hold a
// reference for each.
var evalPeriods = []float64{0.30, 0.35, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00, 1.05}

// rounds returns how many passes over the full suite, at perDesign items
// per design, fill about seconds of a workload running at opsPerSec, but
// never fewer than minRounds.
func rounds(seconds int, opsPerSec float64, perDesign, minRounds int) int {
	return max(minRounds, int(math.Round(float64(seconds)*opsPerSec/float64(suiteSize*perDesign))))
}

// stratified returns r×n indices in [0,n): r rounds, each a seeded
// permutation of all n. Every seed draws each item equally often, so two
// seeds differ in order only and their cost mixes match.
func stratified(rng *rand.Rand, n, r int) []int {
	out := make([]int, 0, n*r)
	for range r {
		out = append(out, rng.Perm(n)...)
	}
	return out
}

// cliJobs is the one-shot CLI's default worker count (-jobs).
func cliJobs() int { return runtime.GOMAXPROCS(0) }

// callers is how many closed-loop clients the daemon workloads run: two,
// never more than the machine's CPUs.
func callers() int { return min(2, runtime.NumCPU()) }

// arrivalDigest is the bit-identity fingerprint the service puts in eval
// responses: SHA-256 over the little-endian IEEE-754 bits of the arrival
// vector. The benchmark computes it for oracle answers it derives itself.
func arrivalDigest(arrival []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, a := range arrival {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(a))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// shardDecision renders the engine's auto-shard decision for one design:
// one letter per variant, S for sharded and - for monolithic.
func shardDecision(reps map[bog.Variant]*engine.RepResult) string {
	var b []byte
	for _, v := range bog.Variants() {
		if reps[v].Sharded() {
			b = append(b, 'S')
		} else {
			b = append(b, '-')
		}
	}
	return string(b)
}

// checkAgainstReference verifies that an eval response built from reps is
// bit-identical (WNS, TNS, arrival digest) to the retained reference
// analysis of each variant's graph at the response's period.
func checkAgainstReference(resp *service.EvalResponse, reps map[bog.Variant]*engine.RepResult) error {
	lib := liberty.DefaultPseudoLib()
	for i, v := range bog.Variants() {
		ref := sta.AnalyzeReference(reps[v].Graph, lib, resp.Period)
		got := resp.Results[i]
		if got.WNS != ref.WNS || got.TNS != ref.TNS || got.ArrivalSHA256 != arrivalDigest(ref.Arrival) {
			return fmt.Errorf("%s %s at %v: service (WNS %v, TNS %v) differs from the reference analysis (WNS %v, TNS %v)",
				resp.Design, v, resp.Period, got.WNS, got.TNS, ref.WNS, ref.TNS)
		}
	}
	return nil
}

// buildSuite evaluates every design of suite on svc's engine and returns
// each design's four representations.
func buildSuite(ctx context.Context, svc *service.Service, suite []design) ([]map[bog.Variant]*engine.RepResult, error) {
	out := make([]map[bog.Variant]*engine.RepResult, len(suite))
	for i, d := range suite {
		reps, err := service.BuildSweepReps(ctx, svc.Engine(), d.name, d.src)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", d.name, err)
		}
		out[i] = reps
	}
	return out, nil
}
