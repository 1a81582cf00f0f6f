package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed call the benchmark made into the system: a
// des.Run, an expt.Run, one coordinator period between Observe
// callbacks, a Submit or a Result. Spans of one job or one simulated
// run share a root through Parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// record adds a span that already ended, such as a coordinator period
// whose start is only known once its Observe callback fires.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// obsSnap is a point-in-time copy of obs.Default's counters and
// histograms; two of them give the deltas of a measured window.
type obsSnap struct {
	counters map[string]uint64
	hists    map[string]obs.HistView
}

func snapObs() obsSnap {
	return obsSnap{counters: obs.Default.Snapshot(), hists: obs.Default.Histograms()}
}

// delta returns the growth of every counter whose name starts with
// prefix between s and later.
func (s obsSnap) delta(later obsSnap, prefix string) float64 {
	var d uint64
	for name, v := range later.counters {
		if strings.HasPrefix(name, prefix) {
			d += v - s.counters[name]
		}
	}
	return float64(d)
}

// counterDeltas returns every counter that grew between s and later.
func (s obsSnap) counterDeltas(later obsSnap) map[string]uint64 {
	out := map[string]uint64{}
	for name, v := range later.counters {
		if d := v - s.counters[name]; d > 0 {
			out[name] = d
		}
	}
	return out
}

// histQuantile returns the q-quantile of the observations a histogram
// received between s and later, interpolating linearly inside the
// bucket that holds it (values above the last bound read as the last
// bound), and the number of observations it rests on.
func (s obsSnap) histQuantile(later obsSnap, name string, q float64) (float64, int) {
	h, ok := later.hists[name]
	if !ok {
		return 0, 0
	}
	prev := s.hists[name]
	counts := make([]float64, len(h.Counts))
	total := 0.0
	for i, c := range h.Counts {
		if i < len(prev.Counts) {
			c -= prev.Counts[i]
		}
		counts[i] = float64(c)
		total += float64(c)
	}
	if total == 0 {
		return 0, 0
	}
	rank := q * total
	cum := 0.0
	for i, c := range counts {
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1], int(total)
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		return lo + (h.Bounds[i]-lo)*(rank-cum)/c, int(total)
	}
	return h.Bounds[len(h.Bounds)-1], int(total)
}

// seriesCount is the number of distinct series obs.Default holds.
func seriesCount() int {
	return len(obs.Default.Snapshot()) + len(obs.Default.Gauges()) + len(obs.Default.Histograms())
}

// profiler wraps one runtime/pprof CPU profile kept in memory.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each module's CPU share and the
// number of samples the shares rest on.
func (p *profiler) stop() (map[string]float64, int, error) {
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(p.buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	shares, n := cpuShares(samples)
	return shares, n, nil
}

// traceDoc is what a traced run writes out when it ends.
type traceDoc struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	CPUSamples int                `json:"cpu_samples"`
	CPUShares  map[string]float64 `json:"cpu_shares"`
	ObsDeltas  map[string]uint64  `json:"obs_deltas"`
	Untraced   map[string]float64 `json:"untraced"`
	Traced     map[string]float64 `json:"traced"`
	Spans      []span             `json:"spans"`
}

// traceDir is where traced runs leave their documents, inside the
// build directory the benchmark already owns.
const traceDir = ".bench_build/trace"

func writeTrace(cfg runConfig, doc *traceDoc) error {
	if doc == nil {
		return nil
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	enc, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s (%d spans, %d CPU samples)\n", path, len(doc.Spans), doc.CPUSamples)
	return nil
}

// cpuModules are the repository packages (plus "gc" and "other") whose
// CPU shares the traced run reports.
var cpuModules = []string{
	"des", "vtime", "coord", "core", "steal", "netmodel", "sched", "expt",
	"satin", "transport", "wire", "wirefmt", "registry", "deque", "job", "pool",
	"store", "record", "obs", "adapt", "apps", "metrics", "perfbench", "gc", "other",
}

// addCPUShares copies the profile shares into the metric map.
func addCPUShares(m map[string]float64, shares map[string]float64) {
	for _, mod := range cpuModules {
		m["cpu."+mod+"_frac"] = shares[mod]
	}
}

// overhead is (traced - untraced) / untraced, the tracing cost on one
// end-to-end figure.
func overhead(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return (traced - untraced) / untraced
}

// perLayer lists the metrics of a traced run. Every workload prints
// all of them; one a workload does not exercise reads 0.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	for _, mod := range cpuModules {
		add("frac", "lower", "cpu."+mod+"_frac")
	}
	add("frac", "lower", "fail_frac", "trace.overhead_frac", "proc.on_cpu_frac", "proc.gc_cpu_frac")
	add("count", "higher", "n.wall", "n.step", "trace.spans")
	// des and expt
	add("ms", "lower", "des.period_wall_ms_p50", "des.period_wall_ms_max")
	add("count", "lower", "des.periods", "des.iterations")
	for _, id := range scenarioIDs() {
		add("s", "lower", "expt.scenario_wall_s."+id)
	}
	// job, pool and transport over TCP
	add("s", "lower", "job.wide_p50_s", "job.wide_p75_s")
	add("ms", "lower", "job.tiny_p50_ms", "job.tiny_p99_ms",
		"job.submit_rtt_ms_p50", "job.submit_rtt_ms_p99", "job.tiny_overhead_ms_p50")
	add("s", "lower", "job.wide_overhead_s_p50")
	add("1/s", "higher", "job.jobs_per_s")
	add("count", "higher", "job.wide_jobs", "job.tiny_jobs")
	add("count", "lower", "pool.granted_per_job", "pool.denied_per_job")
	// satin, steal and wire, per wide job
	add("s", "lower", "satin.wide_iter_s_p50", "satin.wide_iter_s_p90")
	add("frac", "higher", "satin.wide_efficiency", "steal.hit_ratio")
	add("ms", "lower", "satin.steal_rtt_local_ms_p50", "satin.steal_rtt_wan_ms_p50")
	add("count", "lower", "steal.attempts_per_job", "wire.frames_per_job")
	add("B", "lower", "wire.bytes_per_job")
	add("count", "lower", "wire.desync", "wire.stale", "wire.send_err", "wire.decode_err", "satin.report_err")
	// store, record, obs and the process
	add("count", "lower", "store.rows_per_job", "store.dropped_rows")
	add("ms", "lower", "store.flush_latency_ms_p50")
	add("count", "lower", "obs.series_end", "proc.goroutines_settled")
	add("MB", "lower", "proc.heap_settled_mb")
	// layer probes
	add("us", "lower", "coord.root_tick_us", "coord.reqstate_us", "coord.ingest_us",
		"core.blacklisted_nodes_us", "coord.flat_tick_us")
	add("ns", "lower", "steal.next_view_ns", "vtime.event_ns")
	add("us", "lower", "tcp.roundtrip_us", "wire.roundtrip_us", "satin.spawn_sync_us")
	add("ns", "lower", "deque.push_pop_ns", "wirefmt.gob_payload_ns", "store.put_ns")
	add("ms", "lower", "satin.start_nodes_ms")
	return defs
}
