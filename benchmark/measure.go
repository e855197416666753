package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bolt/internal/stats"
)

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

// cpuNow is the process CPU consumed so far (user + system, every thread).
func cpuNow() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the high-water resident set of the process: VmHWM of
// /proc/self/status, in KiB. ru_maxrss is only the fallback, because it
// survives exec: under `go run` it starts at the go command's own resident
// set at the fork (about 23 MB), which is above what three of the four
// workloads reach.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64); err == nil {
					return kib / 1024
				}
			}
		}
	}
	return float64(rusage().Maxrss) / 1024
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// quietFloor is what the timed run reports for a time: the smallest value
// measured at each input, averaged over the inputs (in input order, so the
// sum does not depend on map order).
//
// It is not the median because of what disturbs this benchmark. On a small
// shared box the same code at the same inputs runs up to 1.7x slower for
// seconds to minutes at a time: code that keeps a core's execution ports busy
// slows, a dependent chain of the same instructions does not, one thread is
// hit as hard as two, and CPU time inflates with wall time — another tenant
// on the core's sibling hardware thread. The disturbance only ever adds
// time, so the least time seen at an input is the best estimate of what the
// code costs, and the median of a run is mostly an estimate of how long the
// neighbour was busy. The floor is reached only by an operation that fits
// between the neighbour's bursts, which is why operations are kept short and
// many (fullSize).
func quietFloor(inputs []uint64, vals []float64) float64 {
	best := map[uint64]float64{}
	for i, v := range vals {
		if b, ok := best[inputs[i]]; !ok || v < b {
			best[inputs[i]] = v
		}
	}
	keys := make([]uint64, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	t := 0.0
	for _, k := range keys {
		t += best[k]
	}
	return t / float64(len(keys))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// timeEach runs fn n times and returns each call's wall time in seconds.
func timeEach(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = time.Since(t0).Seconds()
	}
	return out
}

// timeMean runs fn n times under one timer and returns the mean seconds per
// call: for calls too short for a per-call clock read to be honest.
func timeMean(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(t0).Seconds() / float64(n)
}

// sleepOvershootUS is how late time.Sleep(50µs) wakes on this box (median,
// µs): the reason the socket load is closed-loop, and a noisy-box indicator
// in every result header.
func sleepOvershootUS(samples int) float64 {
	const want = 50 * time.Microsecond
	over := timeEach(samples, func(int) { time.Sleep(want) })
	return (median(over) - want.Seconds()) * 1e6
}
