package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// cpuClasses is the Go runtime's own split of the CPU time it used.
type cpuClasses struct{ gc, busy float64 }

func gcCPU() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClasses{gc: s[0].Value.Float64(), busy: s[1].Value.Float64() - s[2].Value.Float64()}
}

// since is the share of busy CPU time spent in the collector between
// prev and c.
func (c cpuClasses) since(prev cpuClasses) float64 {
	if busy := c.busy - prev.busy; busy > 0 {
		return (c.gc - prev.gc) / busy
	}
	return 0
}

// settled waits until the goroutine count stops changing (at most 3 s),
// collects garbage, and records what the process keeps once its work
// stops: live goroutines, live heap and the number of obs series.
func settled(m map[string]float64) {
	deadline := time.Now().Add(3 * time.Second)
	prev, stable := -1, 0
	for time.Now().Before(deadline) && stable < 5 {
		n := runtime.NumGoroutine()
		if n == prev {
			stable++
		} else {
			stable = 0
		}
		prev = n
		time.Sleep(100 * time.Millisecond)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["proc.goroutines_settled"] = float64(runtime.NumGoroutine())
	m["proc.heap_settled_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	m["obs.series_end"] = float64(seriesCount())
}
