package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Runtime metrics read around every measured interval. The CPU classes
// are the runtime's own estimates; they are only compared with each
// other (GC share of all CPU the runtime accounted).
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mHeapLive   = "/gc/heap/live:bytes"
)

// usage is one reading of the process counters a phase is charged with.
type usage struct {
	cpu      time.Duration // user+sys CPU of the whole process (getrusage)
	alloc    uint64        // cumulative heap bytes allocated
	gcCycles uint64
	gcCPU    float64
	totalCPU float64
}

func readUsage() usage {
	var ru syscall.Rusage
	var u usage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	u.alloc = s[0].Value.Uint64()
	u.gcCycles = s[1].Value.Uint64()
	u.gcCPU = s[2].Value.Float64()
	u.totalCPU = s[3].Value.Float64()
	return u
}

// sub returns the counters accrued between b and a (a later).
func (a usage) sub(b usage) usage {
	return usage{
		cpu:      a.cpu - b.cpu,
		alloc:    a.alloc - b.alloc,
		gcCycles: a.gcCycles - b.gcCycles,
		gcCPU:    a.gcCPU - b.gcCPU,
		totalCPU: a.totalCPU - b.totalCPU,
	}
}

func (a usage) add(b usage) usage {
	return usage{
		cpu:      a.cpu + b.cpu,
		alloc:    a.alloc + b.alloc,
		gcCycles: a.gcCycles + b.gcCycles,
		gcCPU:    a.gcCPU + b.gcCPU,
		totalCPU: a.totalCPU + b.totalCPU,
	}
}

// heapLive returns the live heap as of the last completed GC cycle.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: mHeapLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// quantile is the nearest-rank q-quantile of xs (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

const mb = 1e6

// cpuTicks is one reading of the aggregate "cpu" line of /proc/stat.
type cpuTicks struct{ total, steal uint64 }

// readTicks reads the host-wide CPU tick counters; ok is false where
// /proc/stat is unavailable.
func readTicks() (cpuTicks, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t, true
}

// stealMeter measures the host's CPU steal share over an interval, a
// diagnostic recorded beside the metrics (never a metric itself).
type stealMeter struct {
	start cpuTicks
	ok    bool
}

func startSteal() stealMeter {
	t, ok := readTicks()
	return stealMeter{start: t, ok: ok}
}

// pct returns the steal share of all CPU ticks since start, or -1 when
// /proc/stat could not be read.
func (m stealMeter) pct() float64 {
	end, ok := readTicks()
	if !m.ok || !ok || end.total <= m.start.total {
		return -1
	}
	return 100 * float64(end.steal-m.start.steal) / float64(end.total-m.start.total)
}
