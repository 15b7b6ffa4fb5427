package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc returns the cumulative bytes allocated on the heap so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeapMB forces a collection and returns what survives it. The caller
// keeps the system under test referenced, so this is the working set the
// run ended with, not whatever garbage happened to be uncollected.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// spread summarises repeated measurements of one metric: the noise floor
// a later comparison has to clear.
type spread struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	// IQRPct is the inter-quartile distance as a percentage of the median.
	IQRPct float64 `json:"iqr_pct"`
}

func summarise(v []float64) spread {
	s := sortedCopy(v)
	out := spread{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.Min, out.Median, out.Max = s[0], percentile(s, 50), s[len(s)-1]
	if out.Median != 0 {
		out.IQRPct = (percentile(s, 75) - percentile(s, 25)) / math.Abs(out.Median) * 100
	}
	return out
}

// mallocsPerOp returns heap allocations per call of fn.
func mallocsPerOp(iters int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
}
