package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/satin"
)

// The svc_mix deployment: satind's default timings on a 4 x 16 pool.
const (
	svcClusters    = 4
	svcNodesPer    = 16
	wideNodes      = 48
	sampleInterval = time.Second
	rpcTimeout     = 10 * time.Second
	resultTimeout  = 2 * time.Minute
	// svcSetupRepeats is how many daemons a run starts; setup_s is the
	// median set-up and the last daemon is the one measured.
	svcSetupRepeats = 3
)

// The two job classes. Wide jobs live in the data plane (steals over
// the emulated WAN, frame delivery, task payloads); tiny jobs are one
// 3 ms leaf on one node and live in the control plane (TCP hub, job
// protocol, admission, pool grant, grid deploy and teardown, recorder).
var (
	wideSpec = job.Spec{App: "fib", Size: 24, Iters: 3, MinNodes: wideNodes}
	tinySpec = job.Spec{App: "fib", Size: 12, Iters: 1, MinNodes: 1}
)

// wideLeafSeconds is the leaf work of one wide iteration: fib(24) cut
// at 12 has 377 leaves, each sleeping 3 ms (job.BuildTask's fib).
var wideLeafSeconds = float64(leaves(24, 12)) * 0.003

func leaves(n, cutoff int) int {
	if n <= cutoff || n < 2 {
		return 1
	}
	return leaves(n-1, cutoff) + leaves(n-2, cutoff)
}

// daemon is an in-process satind as an operator runs it.
type daemon struct {
	m      *job.Manager
	hub    *transport.TCPHub
	srv    *job.Server
	rec    *record.Recorder
	db     *store.DB
	wide   *job.Ctl
	tiny   *job.Ctl
	stop   chan struct{}
	sample sync.WaitGroup
}

func startDaemon(seed int64, dir string, n int) (*daemon, error) {
	d := &daemon{rec: record.New(4096, 1024), stop: make(chan struct{})}
	db, err := store.Open(fmt.Sprintf("%s/recdb-%d.jsonl", dir, n), fmt.Sprintf("perfbench-%d", n), obs.Default)
	if err != nil {
		return nil, err
	}
	d.db = db
	d.rec.SetSink(db)
	var specs []satin.ClusterSpec
	for i := 0; i < svcClusters; i++ {
		specs = append(specs, satin.ClusterSpec{Name: satin.ClusterID(fmt.Sprintf("fs%d", i)), Nodes: svcNodesPer})
	}
	d.m, err = job.NewManager(job.Config{Clusters: specs, Recorder: d.rec, Seed: seed})
	if err != nil {
		d.close()
		return nil, err
	}
	d.sample.Add(1)
	go d.sampler()
	d.hub, err = transport.NewTCPHub("127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.srv, err = job.Serve(transport.NewTCP(d.hub.Addr()), d.m)
	if err != nil {
		d.close()
		return nil, err
	}
	if d.wide, err = job.Dial(transport.NewTCP(d.hub.Addr()), "perfbench-wide"); err != nil {
		d.close()
		return nil, err
	}
	if d.tiny, err = job.Dial(transport.NewTCP(d.hub.Addr()), "perfbench-tiny"); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// sampler snapshots the registry into the recorder, and so into the
// store, once per interval, as satind's observability endpoint does.
func (d *daemon) sampler() {
	defer d.sample.Done()
	t := time.NewTicker(sampleInterval)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			d.rec.Sample(obs.Default)
		}
	}
}

// close shuts the daemon down in satind's drain order.
func (d *daemon) close() error {
	for _, c := range []*job.Ctl{d.wide, d.tiny} {
		if c != nil {
			c.Close()
		}
	}
	if d.m != nil {
		d.m.Drain(30 * time.Second)
		d.m.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
	if d.hub != nil {
		d.hub.Close()
	}
	close(d.stop)
	d.sample.Wait()
	d.rec.Sample(obs.Default)
	return d.db.Close()
}

// jobRun is one submitted job as the client saw it.
type jobRun struct {
	wide      bool
	latency   float64   // submit until the result arrived, seconds
	submitRTT float64   // the Submit call alone, seconds
	iters     []float64 // server-side iteration wall times
}

// runJob submits one job, waits for its result and checks it.
func runJob(ctl *job.Ctl, wide bool, tr *tracer) (jobRun, error) {
	spec, class := tinySpec, "tiny"
	if wide {
		spec, class = wideSpec, "wide"
	}
	root := tr.begin("job "+class, 0)
	defer tr.end(root)
	t0 := time.Now()
	sid := tr.begin("Submit", root)
	id, err := ctl.Submit(spec, rpcTimeout)
	tr.end(sid)
	if err != nil {
		return jobRun{}, err
	}
	rtt := time.Since(t0).Seconds()
	rid := tr.begin("Result", root)
	r, err := ctl.Result(id, true, resultTimeout)
	tr.end(rid)
	if err != nil {
		return jobRun{}, err
	}
	if r.State != "done" || r.Check != "ok" {
		return jobRun{}, fmt.Errorf("%s job %s ended %s (check %q, err %q)", class, id, r.State, r.Check, r.Err)
	}
	return jobRun{wide: wide, latency: time.Since(t0).Seconds(), submitRTT: rtt, iters: r.Iterations}, nil
}

// loadResult is one closed-loop window.
type loadResult struct {
	win        window
	wide, tiny []jobRun
}

func (l loadResult) jobs() int { return len(l.wide) + len(l.tiny) }

// drive runs both clients in a closed loop until the window's time is
// up; each finishes the job it has in flight. Every job counts as one
// attempted operation; any failure fails it.
func drive(d *daemon, seconds float64, tr *tracer, out *outcome) loadResult {
	var res loadResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	res.win = openWindow()
	deadline := res.win.start.Add(time.Duration(seconds * float64(time.Second)))
	for _, wide := range []bool{true, false} {
		ctl := d.tiny
		if wide {
			ctl = d.wide
		}
		wg.Add(1)
		go func(ctl *job.Ctl, wide bool) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				jr, err := runJob(ctl, wide, tr)
				mu.Lock()
				out.attempted++
				switch {
				case err != nil:
					out.fail("%v", err)
				case wide:
					res.wide = append(res.wide, jr)
				default:
					res.tiny = append(res.tiny, jr)
				}
				mu.Unlock()
			}
		}(ctl, wide)
	}
	wg.Wait()
	res.win.close()
	return res
}

func latencies(js []jobRun) []float64 {
	var xs []float64
	for _, j := range js {
		xs = append(xs, j.latency)
	}
	return xs
}

// warmUp runs one wide job and three tiny ones, as a fresh daemon sees
// before it is measured.
func warmUp(d *daemon, out *outcome) error {
	errs := make(chan error, 2)
	go func() {
		_, err := runJob(d.wide, true, nil)
		errs <- err
	}()
	go func() {
		for i := 0; i < 3; i++ {
			if _, err := runJob(d.tiny, false, nil); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	out.attempted += 4
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

// svcSeed derives the job manager's seed (job n runs with seed+n); it
// must be non-zero for runs to be reproducible.
func svcSeed(seed int64) int64 {
	if s := seed*1000 + 7; s != 0 {
		return s
	}
	return 7
}

func runSvcMix(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	if err := os.MkdirAll(".bench_build/tmp", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build/tmp", "svc_mix-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set up several times and keep the last daemon: setup_s is the
	// median of daemon start, both client handshakes and the warm-up.
	var d *daemon
	var setups []float64
	for i := 0; i < svcSetupRepeats; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, fmt.Errorf("closing daemon: %w", err)
			}
		}
		t0 := time.Now()
		if d, err = startDaemon(svcSeed(cfg.seed), dir, i); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if err := warmUp(d, out); err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// The store lives in a temporary directory removed on return, so its
	// close error changes nothing the run reports.
	defer d.close()

	if !cfg.trace {
		res := drive(d, cfg.seconds, nil, out)
		wide, tiny := latencies(res.wide), latencies(res.tiny)
		if len(wide) == 0 || len(tiny) == 0 {
			return nil, fmt.Errorf("no completed jobs (%d wide, %d tiny)", len(wide), len(tiny))
		}
		m := out.metrics
		m["setup_s"] = median(setups)
		m["wall_s"] = median(wide)
		m["step_p50_ms"] = 1000 * quantile(tiny, 0.5)
		m["step_p90_ms"] = 1000 * quantile(tiny, 0.9)
		m["items_per_s"] = float64(res.jobs()) / res.win.wall
		m["cpu_ms_per_item"] = 1000 * res.win.cpu / float64(res.jobs())
		m["max_rss_mb"] = maxRSSMB()
		fmt.Fprintf(os.Stderr, "perfbench: svc_mix seed %d: %d wide, %d tiny jobs (tiny p90 tail %v), wide p50 %.3fs, tiny p50 %.1fms\n",
			cfg.seed, len(wide), len(tiny), tailOK(len(tiny), 0.9), m["wall_s"], m["step_p50_ms"])
		return out, nil
	}

	// Traced run: a shorter untraced window prices the tracing, then
	// the traced window gives the layer figures.
	base := drive(d, cfg.seconds/3, nil, out)
	before := snapObs()
	gc0 := gcCPU()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	res := drive(d, cfg.seconds, tr, out)
	shares, nsamples, err := prof.stop()
	if err != nil {
		return nil, err
	}
	after := snapObs()
	if len(res.wide) == 0 || len(res.tiny) == 0 {
		return nil, fmt.Errorf("no completed jobs (%d wide, %d tiny)", len(res.wide), len(res.tiny))
	}
	m := out.metrics
	addCPUShares(m, shares)
	svcLayers(m, res, before, after)
	m["proc.on_cpu_frac"] = res.win.cpu / (res.win.wall * float64(runtime.GOMAXPROCS(0)))
	m["proc.gc_cpu_frac"] = gcCPU().since(gc0)
	m["trace.spans"] = float64(len(tr.spans))
	untraced, traced := median(latencies(base.tiny)), median(latencies(res.tiny))
	m["trace.overhead_frac"] = overhead(traced, untraced)
	settled(m)
	if err := runProbes(m); err != nil {
		return nil, err
	}
	out.trace = &traceDoc{
		Workload: cfg.workload, Seed: cfg.seed, CPUSamples: nsamples, CPUShares: shares,
		ObsDeltas: before.counterDeltas(after),
		Untraced:  map[string]float64{"tiny_p50_s": untraced, "wide_p50_s": median(latencies(base.wide))},
		Traced:    map[string]float64{"tiny_p50_s": traced, "wide_p50_s": median(latencies(res.wide))},
		Spans:     tr.spans,
	}
	return out, nil
}

// svcLayers fills the job, pool, satin, steal, wire and store figures
// of one traced window.
func svcLayers(m map[string]float64, res loadResult, before, after obsSnap) {
	wide, tiny := latencies(res.wide), latencies(res.tiny)
	nw, nj := float64(len(res.wide)), float64(res.jobs())
	m["n.wall"] = nw
	m["n.step"] = float64(len(tiny))
	m["job.wide_jobs"] = nw
	m["job.tiny_jobs"] = float64(len(tiny))
	m["job.wide_p50_s"] = quantile(wide, 0.5)
	m["job.wide_p75_s"] = quantile(wide, 0.75)
	m["job.tiny_p50_ms"] = 1000 * quantile(tiny, 0.5)
	m["job.tiny_p99_ms"] = 1000 * quantile(tiny, 0.99)
	m["job.jobs_per_s"] = nj / res.win.wall

	var rtts, tinyOver, wideOver, iters, eff []float64
	for _, j := range append(append([]jobRun(nil), res.wide...), res.tiny...) {
		rtts = append(rtts, j.submitRTT)
		over := j.latency - sum(j.iters)
		if j.wide {
			wideOver = append(wideOver, over)
			for _, it := range j.iters {
				iters = append(iters, it)
				eff = append(eff, wideLeafSeconds/(wideNodes*it))
			}
		} else {
			tinyOver = append(tinyOver, over)
		}
	}
	m["job.submit_rtt_ms_p50"] = 1000 * quantile(rtts, 0.5)
	m["job.submit_rtt_ms_p99"] = 1000 * quantile(rtts, 0.99)
	m["job.tiny_overhead_ms_p50"] = 1000 * median(tinyOver)
	m["job.wide_overhead_s_p50"] = median(wideOver)
	m["satin.wide_iter_s_p50"] = quantile(iters, 0.5)
	m["satin.wide_iter_s_p90"] = quantile(iters, 0.9)
	m["satin.wide_efficiency"] = median(eff)

	m["pool.granted_per_job"] = before.delta(after, "pool/granted") / nj
	m["pool.denied_per_job"] = before.delta(after, "pool/denied") / nj
	local, _ := before.histQuantile(after, "satin/steal_rtt/local", 0.5)
	wan, _ := before.histQuantile(after, "satin/steal_rtt/wan_async", 0.5)
	m["satin.steal_rtt_local_ms_p50"] = 1000 * local
	m["satin.steal_rtt_wan_ms_p50"] = 1000 * wan
	hits, misses := before.delta(after, "steal/hits"), before.delta(after, "steal/misses")
	if hits+misses > 0 {
		m["steal.hit_ratio"] = hits / (hits + misses)
	}
	attempts := before.delta(after, "steal/sync_local_attempts") +
		before.delta(after, "steal/sync_wide_attempts") + before.delta(after, "steal/async_attempts")
	m["steal.attempts_per_job"] = attempts / nw
	m["wire.frames_per_job"] = before.delta(after, "wire/frames_out/") / nw
	m["wire.bytes_per_job"] = before.delta(after, "wire/bytes_out/") / nw
	m["wire.desync"] = before.delta(after, "wire/desync/")
	m["wire.stale"] = before.delta(after, "wire/stale/")
	m["wire.send_err"] = before.delta(after, "wire/send_err/")
	m["wire.decode_err"] = before.delta(after, "wire/decode_err/")
	m["satin.report_err"] = before.delta(after, "satin/report_err")
	m["store.rows_per_job"] = before.delta(after, "store/rows_written") / nj
	m["store.dropped_rows"] = before.delta(after, "store/dropped_rows")
	flush, _ := before.histQuantile(after, "store/flush_latency", 0.5)
	m["store.flush_latency_ms_p50"] = 1000 * flush
}
