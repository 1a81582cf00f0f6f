package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/deque"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/registry"
	"repro/internal/steal"
	"repro/internal/store"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/vtime"
	"repro/internal/wirefmt"
	"repro/satin"
)

// Layer probes time one layer's public functions directly, at the
// scale of the workload the layer serves. Each probe reports the
// median per-operation time of several batches.

// perOp runs batches of n calls of fn and returns the median seconds
// per call.
func perOp(batches, n int, fn func()) float64 {
	var xs []float64
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		xs = append(xs, time.Since(t0).Seconds()/float64(n))
	}
	return median(xs)
}

// spawnN spawns N trivial children and syncs.
type spawnN struct{ N int }

func (s spawnN) Execute(ctx *satin.Context) (any, error) {
	for i := 0; i < s.N; i++ {
		ctx.Spawn(nop{})
	}
	return s.N, ctx.Sync()
}

type nop struct{}

func (nop) Execute(*satin.Context) (any, error) { return nil, nil }

// probeFrame is a steal-reply-sized control frame with a binary codec.
type probeFrame struct {
	Seq   uint64
	Owner string
	Args  [4]int
}

func (m *probeFrame) AppendWire(b []byte) ([]byte, error) {
	b = wirefmt.AppendUvarint(b, m.Seq)
	b = wirefmt.AppendString(b, m.Owner)
	for _, a := range m.Args {
		b = wirefmt.AppendVarint(b, int64(a))
	}
	return b, nil
}

func (m *probeFrame) DecodeWire(r *wirefmt.Reader) error {
	m.Seq = r.Uvarint()
	m.Owner = r.String()
	for i := range m.Args {
		m.Args[i] = int(r.Varint())
	}
	return r.Err()
}

func init() {
	satin.Register(spawnN{})
	satin.Register(nop{})
	wire.Register[probeFrame]("perfbench-probe")
}

// idleActuator satisfies coord's actuator interfaces with no-ops.
type idleActuator struct{}

func (idleActuator) Provision(int, float64, coord.Veto) int    { return 0 }
func (idleActuator) Evict([]core.NodeID, string) []core.NodeID { return nil }
func (idleActuator) ObservedBandwidth(core.ClusterID) float64  { return 0 }
func (idleActuator) Annotate(string)                           {}
func (idleActuator) ClusterNodes(core.ClusterID) []core.NodeID { return nil }

func probeRegistry() registry.Options {
	return registry.Options{HeartbeatInterval: 20 * time.Millisecond, FailureTimeout: 100 * time.Millisecond}
}

// runProbes runs every layer probe and stores its figure in m.
func runProbes(m map[string]float64) error {
	probeCoord(m)
	m["steal.next_view_ns"] = 1e9 * probeNextView()
	m["vtime.event_ns"] = 1e9 * probeVtime()
	m["deque.push_pop_ns"] = 1e9 * probeDeque()
	gob, err := probeGob()
	if err != nil {
		return err
	}
	m["wirefmt.gob_payload_ns"] = 1e9 * gob
	for _, p := range []struct {
		name  string
		scale float64
		fn    func() (float64, error)
	}{
		{"tcp.roundtrip_us", 1e6, probeTCP},
		{"wire.roundtrip_us", 1e6, probeWire},
		{"satin.spawn_sync_us", 1e6, probeSpawnSync},
		{"satin.start_nodes_ms", 1e3, probeStartNodes},
		{"store.put_ns", 1e9, probeStorePut},
	} {
		v, err := p.fn()
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		m[p.name] = p.scale * v
	}
	return nil
}

// probeCoord times the root kernel at des_world's scale (100 clusters
// of 20 nodes, a 2,000-node blacklist) and the flat kernel at
// des_paper's (200 nodes in 2 clusters).
func probeCoord(m map[string]float64) {
	const clusters, perCluster = worldClusters, worldPerCluster
	ecfg := core.DefaultConfig()
	rk, err := coord.NewRoot(coord.Config{Engine: &ecfg}, idleActuator{})
	if err != nil {
		panic(err) // a static, valid configuration
	}
	reqs := rk.Requirements()
	var ids []core.ClusterID
	var sums []coord.ClusterSummary
	for i := 0; i < clusters; i++ {
		c := core.ClusterID(fmt.Sprintf("g%03d", i))
		ids = append(ids, c)
		for n := 0; n < perCluster; n++ {
			reqs.BlacklistNode(topo.NodeName(c, n), "probe")
		}
		sum := coord.ClusterSummary{
			Cluster: c, Seq: 1, Time: 100, Nodes: perCluster, Stats: perCluster,
			SpeedMax: 100, SpeedMin: 100,
			WorkSum: 40 * perCluster, EffSum: 0.4 * perCluster,
			SpeedSum: 100 * perCluster, InterSum: 0.05 * perCluster,
		}
		for p := 0; p < 8; p++ {
			sum.Proposals = append(sum.Proposals, coord.NodeSample{
				Node: topo.NodeName(c, p), Speed: 100, Idle: 0.55, InterComm: 0.05,
			})
		}
		rk.Ingest(sum)
		sums = append(sums, sum)
	}
	m["core.blacklisted_nodes_us"] = 1e6 * perOp(7, 200, func() { reqs.BlacklistedNodes() })
	m["coord.reqstate_us"] = 1e6 * perOp(7, 200, func() { rk.ReqState() })
	st := rk.ReqState()
	seq := 1.0
	m["coord.ingest_us"] = 1e6 * perOp(7, 200, func() {
		s := sums[int(seq)%clusters]
		seq++
		s.Time, s.Req = 100+seq, st
		rk.Ingest(s)
	})
	m["coord.root_tick_us"] = 1e6 * perOp(7, 200, func() { rk.Tick(200, ids, clusters*perCluster) })

	k, err := coord.New(coord.Config{Engine: &ecfg}, idleActuator{})
	if err != nil {
		panic(err)
	}
	var live []core.NodeID
	for i := 0; i < 200; i++ {
		c := core.ClusterID(fmt.Sprintf("fs%d", i/100))
		id := topo.NodeName(c, i%100)
		live = append(live, id)
		k.Report(metrics.Report{Node: id, Cluster: c, Start: 0, End: 100,
			BusySec: 45, IdleSec: 55, Speed: 100})
	}
	m["coord.flat_tick_us"] = 1e6 * perOp(7, 50, func() { k.Tick(100, live) })
}

// probeNextView times one CRS victim draw over des_world's 2,000
// members in 100 clusters.
func probeNextView() float64 {
	var members []steal.Member
	for i := 0; i < worldClusters; i++ {
		c := core.ClusterID(fmt.Sprintf("g%03d", i))
		for n := 0; n < worldPerCluster; n++ {
			members = append(members, steal.Member{ID: topo.NodeName(c, n), Cluster: c})
		}
	}
	v := steal.NewView()
	v.Rebuild(members)
	eng := steal.New(steal.CRS, members[0].ID, members[0].Cluster, 1)
	now := 0.0
	return perOp(7, 20000, func() {
		now++
		d := eng.NextView(now, v)
		if d.HasSync {
			eng.SyncDone(false)
		}
		if d.HasAsync {
			eng.AsyncDone(false)
		}
	})
}

// probeVtime times one event of a simulation kernel holding 1,024
// pending events, each rescheduling itself.
func probeVtime() float64 {
	const pending, events = 1024, 200000
	var xs []float64
	for b := 0; b < 5; b++ {
		s := vtime.New(1)
		left := events
		var tick func()
		tick = func() {
			if left--; left > 0 {
				s.After(s.Rand().Float64(), tick)
			}
		}
		for i := 0; i < pending; i++ {
			s.After(s.Rand().Float64(), tick)
		}
		t0 := time.Now()
		s.Run()
		xs = append(xs, time.Since(t0).Seconds()/events)
	}
	return median(xs)
}

func probeDeque() float64 {
	d := deque.New[int]()
	return perOp(7, 100000, func() {
		d.Push(1)
		d.PopBottom()
	})
}

// probeGob times encoding one task payload the way task frames carry
// it.
func probeGob() (float64, error) {
	var task any = apps.Fib{N: 20, SeqCutoff: 12, LeafDelay: 3 * time.Millisecond}
	buf := make([]byte, 0, 256)
	var err error
	t := perOp(7, 2000, func() {
		if _, e := wirefmt.AppendGob(buf[:0], task); e != nil {
			err = e
		}
	})
	return t, err
}

// echoPair attaches two endpoints to a fabric, b echoing every frame
// back to a, and returns a round-trip function.
func echoPair(f transport.Fabric, prefix string) (func() error, func(), error) {
	a, err := f.Endpoint(prefix + "-a")
	if err != nil {
		return nil, nil, err
	}
	b, err := f.Endpoint(prefix + "-b")
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	ca, cb := wire.New(a), wire.New(b)
	back := make(chan struct{}, 1)
	wire.Handle(cb, func(v probeFrame, _ wire.Meta) { _ = wire.Send(cb, prefix+"-a", v) })
	wire.Handle(ca, func(probeFrame, wire.Meta) {
		select {
		case back <- struct{}{}:
		default:
		}
	})
	v := probeFrame{Seq: 42, Owner: "fs0/03", Args: [4]int{1, 2, 3, 4}}
	rt := func() error {
		if err := wire.Send(ca, prefix+"-b", v); err != nil {
			return err
		}
		select {
		case <-back:
			return nil
		case <-time.After(200 * time.Millisecond):
			return fmt.Errorf("no echo")
		}
	}
	closeFn := func() { ca.Close(); cb.Close() }
	return rt, closeFn, nil
}

// roundTrips warms a pair up (a hub drops frames to names it has not
// seen register yet) and then times its round trips.
func roundTrips(rt func() error) (float64, error) {
	ok := false
	for i := 0; i < 50 && !ok; i++ {
		ok = rt() == nil
	}
	if !ok {
		return 0, fmt.Errorf("pair never answered")
	}
	var err error
	t := perOp(7, 300, func() {
		if e := rt(); e != nil {
			err = e
		}
	})
	return t, err
}

// probeTCP: one frame through the TCP hub to an echoing endpoint and
// back, the path every satind control frame takes.
func probeTCP() (float64, error) {
	hub, err := transport.NewTCPHub("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer hub.Close()
	rt, closeFn, err := echoPair(transport.NewTCP(hub.Addr()), "probe-tcp")
	if err != nil {
		return 0, err
	}
	defer closeFn()
	return roundTrips(rt)
}

// probeWire: the same round trip over the in-process fabric a grid's
// nodes share.
func probeWire() (float64, error) {
	f := transport.NewInProc(nil)
	defer f.Close()
	rt, closeFn, err := echoPair(f, "probe-wire")
	if err != nil {
		return 0, err
	}
	defer closeFn()
	return roundTrips(rt)
}

// probeSpawnSync: a task spawning 256 trivial children and syncing on
// one live node.
func probeSpawnSync() (float64, error) {
	g, err := satin.NewGrid(satin.GridConfig{
		Clusters: []satin.ClusterSpec{{Name: "c0", Nodes: 1}},
		Registry: probeRegistry(),
		Node:     satin.NodeConfig{Registry: probeRegistry()},
	})
	if err != nil {
		return 0, err
	}
	defer g.Close()
	nodes, err := g.StartNodes("c0", 1)
	if err != nil {
		return 0, err
	}
	n := nodes[0]
	if _, err := n.Run(spawnN{N: 1}); err != nil {
		return 0, err
	}
	t := perOp(7, 100, func() {
		if _, e := n.Run(spawnN{N: 256}); e != nil {
			err = e
		}
	})
	return t, err
}

// probeStartNodes: deploying a wide job's 48 nodes on svc_mix's 4 x 16
// grid.
func probeStartNodes() (float64, error) {
	var xs []float64
	for rep := 0; rep < 5; rep++ {
		var specs []satin.ClusterSpec
		for i := 0; i < svcClusters; i++ {
			specs = append(specs, satin.ClusterSpec{Name: satin.ClusterID(fmt.Sprintf("fs%d", i)), Nodes: svcNodesPer})
		}
		g, err := satin.NewGrid(satin.GridConfig{Clusters: specs, Seed: 1})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for _, c := range specs {
			if _, err := g.StartNodes(c.Name, wideNodes/svcClusters); err != nil {
				g.Close()
				return 0, err
			}
		}
		xs = append(xs, time.Since(t0).Seconds())
		g.Close()
	}
	return median(xs), nil
}

// probeStorePut: one event handed to the record store (the producer
// side; the writer goroutine batches to disk behind it).
func probeStorePut() (float64, error) {
	if err := os.MkdirAll(".bench_build/tmp", 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(".bench_build/tmp", "probe-store-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	db, err := store.Open(filepath.Join(dir, "recdb.jsonl"), "probe", obs.NewRegistry(), store.Options{QueueSize: 1 << 16})
	if err != nil {
		return 0, err
	}
	ev := record.Event{Time: 1, Kind: "period", Job: "job-001", Data: map[string]any{"wae": 0.4}}
	t := perOp(7, 5000, func() { db.PutEvent(ev) })
	return t, db.Close()
}
