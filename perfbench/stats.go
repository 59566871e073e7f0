package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by nearest rank on a sorted copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// A run builds its workload at least minSetups times and until minSetupTime
// has been spent building; set-up time is the median of the builds, each
// at the reference host speed (calib.go), and the last build is the one
// measured. Host speed swings over seconds, so a
// workload that builds in a second needs more builds than one that takes
// three for its median to hold still between runs.
const (
	minSetups    = 3
	minSetupTime = 5 * time.Second
	// setupCalibRuns is how many calibration kernels (calib.go) precede
	// each build, on the freshly collected heap, so no collection runs
	// beside them.
	setupCalibRuns = 3
)

// setUp builds a workload as above, tears down every build but the last,
// and returns the last with the median build time in seconds. Each build
// starts, and the measured window follows, on a freshly collected heap, so
// no build pays for collecting an earlier one.
func setUp[T any](build func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		got   T
		times []float64
		spent time.Duration
	)
	defer runtime.GC()
	for len(times) < minSetups || spent < minSetupTime {
		if len(times) > 0 {
			teardown(got)
		}
		runtime.GC()
		scale := hostScale(setupCalibRuns)
		start := time.Now()
		var err error
		got, err = build()
		if err != nil {
			return got, 0, err
		}
		d := time.Since(start)
		spent += d
		times = append(times, d.Seconds()*scale)
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up times %.3f s\n", times)
	return got, median(times), nil
}

// runtimeSample is the Go runtime's cumulative counters at one instant.
type runtimeSample struct {
	allocs, gcCycles uint64
	gcCPU, totalCPU  float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocs:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}

// addRuntimeLayers reports the GC's share of CPU and its cycle count
// between two samples.
func addRuntimeLayers(r *report, from, to runtimeSample) {
	frac := 0.0
	if d := to.totalCPU - from.totalCPU; d > 0 {
		frac = (to.gcCPU - from.gcCPU) / d
	}
	r.layer["runtime.gc_cpu_frac"] = metric{frac, "ratio"}
	r.layer["runtime.gc_cycles"] = metric{float64(to.gcCycles - from.gcCycles), "count"}
}

// heapLiveMB forces a collection and returns the live heap in MiB. The
// second collection also frees what sync.Pools kept through the first.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
