package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method) does, which is the rule the acceptance check of this
// benchmark is stated in. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return median(xs), median(xs)
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// iqrFrac is the interquartile range of xs as a share of its median.
func iqrFrac(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// percentile returns the p-quantile (0..1) of an ascending slice by
// nearest rank.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

// tail returns the highest percentile of an ascending sample that
// still has at least ten samples beyond it, and the value there.
func tail(asc []float64) (pct, value float64) {
	n := len(asc)
	if n < 11 {
		return 0, 0
	}
	return 100 * float64(n-10) / float64(n), asc[n-11]
}

// procUsage is the process's CPU time and peak resident set so far.
func procUsage() (cpuSeconds, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// residentMB reads the process's current resident set from
// /proc/self/statm (0 where there is no such file).
func residentMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := bytes.Fields(raw)
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(string(fields[1]), 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// watchRSS polls the resident set every few milliseconds until the
// returned function is called, which stops the polling and reports the
// highest value seen.
func watchRSS() (peakMB func() float64) {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		peak := residentMB()
		for {
			select {
			case <-tick.C:
				peak = math.Max(peak, residentMB())
			case <-stop:
				done <- math.Max(peak, residentMB())
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// memCounters snapshots the allocator counters used for the
// allocs-per-operation and GC-pause metrics.
func memCounters() (mallocs uint64, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, time.Duration(ms.PauseTotalNs)
}

var calibSink uint64

// calibrate times a fixed arithmetic loop and returns nanoseconds per
// iteration. Run at the start, middle and end of a run it shows
// whether the host itself changed speed (a slow epoch) while the
// workload's own work stayed the same.
func calibrate() float64 {
	const iters = 20_000_000
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	el := time.Since(t0)
	calibSink += x
	return float64(el.Nanoseconds()) / iters
}
