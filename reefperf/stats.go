package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the exact q-quantile of samples by the nearest-rank
// rule: the smallest sample with at least q of all samples at or below
// it. samples is sorted in place. It returns 0 for no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(samples) {
		sort.Float64s(samples)
	}
	rank := int(math.Ceil(q * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// median is quantile(samples, 0.5).
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// lateness returns, for an open-loop schedule that started at start and
// sends one operation every interval, how far each send instant fell
// behind its due time, in microseconds. A send ahead of its due time
// (never produced by the generator) counts as 0.
func lateness(start time.Time, interval time.Duration, sent []time.Time) []float64 {
	out := make([]float64, len(sent))
	for i, s := range sent {
		due := start.Add(time.Duration(i) * interval)
		if d := s.Sub(due); d > 0 {
			out[i] = us(d)
		}
	}
	return out
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// busyMeter accounts process CPU and heap allocations over one busy
// phase of a run.
type busyMeter struct {
	cpu0    time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pause0  int
}

// startBusy collects the garbage first, so every busy phase starts from
// the same heap and the collections inside it follow from its own
// allocations.
func startBusy() busyMeter {
	settle()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return busyMeter{cpu0: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}

// busyCost is what one busy phase consumed.
type busyCost struct {
	CPU        time.Duration
	Mallocs    uint64
	AllocBytes uint64
	GCs        uint32
	GCPausesUs []float64
}

func (b busyMeter) stop() busyCost {
	cpu := cpuTime() - b.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := busyCost{CPU: cpu, Mallocs: ms.Mallocs - b.mallocs, AllocBytes: ms.TotalAlloc - b.bytes, GCs: ms.NumGC - b.gcs}
	// PauseNs is a ring of the last 256 pauses; take the phase's own.
	n := int(c.GCs)
	if n > len(ms.PauseNs) {
		n = len(ms.PauseNs)
	}
	for i := 0; i < n; i++ {
		idx := (int(ms.NumGC) - 1 - i + len(ms.PauseNs)) % len(ms.PauseNs)
		c.GCPausesUs = append(c.GCPausesUs, float64(ms.PauseNs[idx])/1e3)
	}
	return c
}

func (c *busyCost) add(o busyCost) {
	c.CPU += o.CPU
	c.Mallocs += o.Mallocs
	c.AllocBytes += o.AllocBytes
	c.GCs += o.GCs
	c.GCPausesUs = append(c.GCPausesUs, o.GCPausesUs...)
}

// settle collects set-up's garbage before a measured phase starts, so
// the first collections of the phase do not pay for set-up.
func settle() { runtime.GC() }

// heapLiveMB forces two collections and returns the bytes of the
// objects they left live, in MB. The second empties sync.Pool's victim
// caches, which hold as many pooled buffers as were last in use at once
// and so moved the figure by 8 MB from round to round. HeapInuse would
// add the free space of partly used spans, which depends on the order
// of allocation.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
