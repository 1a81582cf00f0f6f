package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailOK reports whether a percentile q over n samples has at least ten
// samples beyond it, the minimum for it to be reported.
func tailOK(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// maxRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// window is a timed measurement interval with its CPU time.
type window struct {
	start time.Time
	cpu0  float64
	wall  float64
	cpu   float64
}

func openWindow() window { return window{start: time.Now(), cpu0: cpuSeconds()} }

func (w *window) close() {
	w.wall = time.Since(w.start).Seconds()
	w.cpu = cpuSeconds() - w.cpu0
}
