package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the nearest-rank p-quantile (0 < p <= 1) of
// samples: the smallest value with at least p of the samples at or
// below it. It sorts a copy, so callers may keep appending. An empty
// input yields 0.
func quantile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heap is a runtime.MemStats reading reduced to the counters the
// benchmark reports per job.
type heap struct {
	totalAlloc uint64
	mallocs    uint64
	numGC      uint32
	pauseNs    uint64
}

func readHeap() heap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heap{totalAlloc: m.TotalAlloc, mallocs: m.Mallocs, numGC: m.NumGC, pauseNs: m.PauseTotalNs}
}

// perJob divides the growth of each counter from h0 to h1 over jobs.
func perJob(h0, h1 heap, jobs int) (allocMB, mallocs, gcCycles, gcPauseMs float64) {
	n := float64(jobs)
	return float64(h1.totalAlloc-h0.totalAlloc) / 1e6 / n,
		float64(h1.mallocs-h0.mallocs) / n,
		float64(h1.numGC-h0.numGC) / n,
		float64(h1.pauseNs-h0.pauseNs) / 1e6 / n
}

// splitmix64 is the seed mixer behind every generated input.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
