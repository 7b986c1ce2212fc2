package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation, NaN for
// an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes is the process's maximum resident set size.
func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// openFDs counts the process's open file descriptors.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// runtimeSnap is the Go runtime's cumulative allocation and CPU split.
type runtimeSnap struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
}

func takeRuntimeSnap() runtimeSnap {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	var s runtimeSnap
	if samples[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[2].Value.Float64()
	}
	if samples[3].Value.Kind() == metrics.KindUint64 {
		s.gcCycles = samples[3].Value.Uint64()
	}
	return s
}

// settleGoroutines waits up to limit for the goroutine and descriptor
// counts to fall back to their baselines, returning the final excess.
func settleGoroutines(baseG, baseFD int, limit time.Duration) (extraG, extraFD int) {
	deadline := time.Now().Add(limit)
	for {
		runtime.GC()
		extraG = runtime.NumGoroutine() - baseG
		extraFD = openFDs() - baseFD
		if (extraG <= 0 && extraFD <= 0) || time.Now().After(deadline) {
			return extraG, extraFD
		}
		time.Sleep(20 * time.Millisecond)
	}
}
