package coord

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wirefmt/frametest"
)

// --- wire codec golden suite ------------------------------------------

// TestClusterSummaryWireParity runs the summary frame's edge cases
// through the binary codec and gob: zero values, extreme floats,
// unicode IDs, nil-vs-populated link maps, and a fully loaded frame.
func TestClusterSummaryWireParity(t *testing.T) {
	frametest.Parity[ClusterSummary, *ClusterSummary](t, []ClusterSummary{
		{},
		{Cluster: "A", Seq: 1, Epoch: 0, Time: 100, Nodes: 4, Stats: 4,
			SpeedMax: 100, SpeedMin: 50, WorkSum: 180, ZeroWork: 0.5,
			EffSum: 2.5, SpeedSum: 300, InterSum: 0.75,
			InterBWSum: 4e6, InterBWCnt: 2},
		{Cluster: "кластер-ü", Seq: math.MaxUint64, Epoch: 7,
			Time: -1, Nodes: -1, Stats: 0,
			SpeedMax: math.MaxFloat64, SpeedMin: math.SmallestNonzeroFloat64,
			Links: map[core.ClusterID]core.LinkSample{
				"B":    {Seconds: 0.5, Bytes: 1 << 20},
				"远方集群": {Seconds: 3, Bytes: 7},
			},
			Proposals: []NodeSample{
				{Node: "n0", Speed: 100, Idle: 0.25, IntraComm: 0.125, InterComm: 0.5},
				{Node: "узел-1"},
			},
			Req: ReqState{
				Nodes:        []core.NodeID{"bad-1", "bad-2"},
				Clusters:     []core.ClusterID{"C"},
				MinBandwidth: 5e5,
			}},
		{Cluster: "A", Links: map[core.ClusterID]core.LinkSample{}},
		{Cluster: "stream-src", Seq: 9, Time: 300, Nodes: 6, Stats: 6,
			HasStream: true, StreamArrived: 120, StreamCompleted: 118,
			StreamLatencySum: 94.5, StreamBacklog: 17},
		{Cluster: "stream-edge", HasStream: true,
			StreamArrived: math.MaxInt32, StreamCompleted: -1,
			StreamLatencySum: math.Inf(1), StreamBacklog: 0},
	})
}

func TestReqStateWireParity(t *testing.T) {
	frametest.Parity[ReqState, *ReqState](t, []ReqState{
		{},
		{Nodes: []core.NodeID{"n1"}, MinBandwidth: 1e6},
		{Nodes: []core.NodeID{"n1", "узел-2"}, Clusters: []core.ClusterID{"A", "B"}, MinBandwidth: 0.5},
	})
}

func TestClusterSummaryWireCorrupt(t *testing.T) {
	sum := ClusterSummary{
		Cluster: "A", Seq: 3, Epoch: 1, Time: 200, Nodes: 2, Stats: 2,
		SpeedMax: 100, SpeedMin: 50, WorkSum: 75, EffSum: 1.5,
		SpeedSum: 150, InterSum: 0.25, InterBWSum: 2e6, InterBWCnt: 1,
		Links:     map[core.ClusterID]core.LinkSample{"B": {Seconds: 1, Bytes: 2e6}},
		Proposals: []NodeSample{{Node: "n0", Speed: 50, Idle: 0.5}},
		Req:       ReqState{Nodes: []core.NodeID{"bad"}, MinBandwidth: 1e5},
		HasStream: true, StreamArrived: 40, StreamCompleted: 39,
		StreamLatencySum: 12.25, StreamBacklog: 3,
	}
	enc, err := sum.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	frametest.Corrupt[ClusterSummary, *ClusterSummary](t, enc)
}

// --- scripted decision sequences on the single-process kernel --------

// worldActuator is the fake runtime of the scripted kernel tests: it
// grants every provision, evicts every victim from its live world, and
// records all calls so a test can pin the effect sequence verbatim.
type worldActuator struct {
	live       map[core.NodeID]core.ClusterID
	provisions []int
	evictions  [][]core.NodeID
	labels     []string
}

func (a *worldActuator) Provision(n int, minBandwidth float64, veto Veto) int {
	a.provisions = append(a.provisions, n)
	return n
}

func (a *worldActuator) Evict(victims []core.NodeID, reason string) []core.NodeID {
	for _, id := range victims {
		delete(a.live, id)
	}
	a.evictions = append(a.evictions, append([]core.NodeID(nil), victims...))
	return victims
}

func (a *worldActuator) ObservedBandwidth(core.ClusterID) float64 { return 0 }

func (a *worldActuator) Annotate(label string) { a.labels = append(a.labels, label) }

// scriptHarness drives one Kernel through a report script over a small
// world and checks the effects the script expects.
type scriptHarness struct {
	t   *testing.T
	k   *Kernel
	act *worldActuator
}

func newScriptHarness(t *testing.T, world map[core.NodeID]core.ClusterID, cfg Config) *scriptHarness {
	t.Helper()
	live := make(map[core.NodeID]core.ClusterID, len(world))
	for id, c := range world {
		live[id] = c
	}
	h := &scriptHarness{t: t, act: &worldActuator{live: live}}
	var err error
	if h.k, err = New(cfg, h.act); err != nil {
		t.Fatal(err)
	}
	return h
}

func newBatchHarness(t *testing.T, world map[core.NodeID]core.ClusterID) *scriptHarness {
	ecfg := core.DefaultConfig()
	return newScriptHarness(t, world, Config{Engine: &ecfg})
}

func newStreamHarness(t *testing.T, world map[core.NodeID]core.ClusterID, scfg core.StreamSLOConfig) *scriptHarness {
	obj, err := core.NewStreamSLO(scfg)
	if err != nil {
		t.Fatal(err)
	}
	return newScriptHarness(t, world, Config{Objective: obj})
}

// observeStream feeds one period's per-cluster streaming partials, in
// sorted cluster order so the float sums are reproducible.
func (h *scriptHarness) observeStream(partials map[core.ClusterID]core.StreamObs) {
	clusters := make([]core.ClusterID, 0, len(partials))
	for c := range partials {
		clusters = append(clusters, c)
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i] < clusters[j] })
	for _, c := range clusters {
		h.k.ObserveStream(partials[c])
	}
}

// period feeds one period's reports and ticks. Reports of nodes the
// kernel already evicted are dropped, as a real runtime would.
func (h *scriptHarness) period(pi int, reports []metrics.Report) PeriodRecord {
	for _, r := range reports {
		if _, ok := h.act.live[r.Node]; ok {
			h.k.Report(r)
		}
	}
	return h.k.Tick(float64(pi+1)*dur, sortedLive(h.act.live))
}

// finish checks the effects the whole script left behind: the
// provision and eviction sequences, both blacklists, the learned
// bandwidth and the survivors.
func (h *scriptHarness) finish(provisions []int, evictions [][]core.NodeID, nodeBL []core.NodeID,
	clusterBL []core.ClusterID, minBW float64, survivors []core.NodeID) {
	h.t.Helper()
	if fmt.Sprint(h.act.provisions) != fmt.Sprint(provisions) {
		h.t.Errorf("provisions %v, want %v", h.act.provisions, provisions)
	}
	if fmt.Sprint(h.act.evictions) != fmt.Sprint(evictions) {
		h.t.Errorf("evictions %v, want %v", h.act.evictions, evictions)
	}
	req := h.k.Requirements()
	if got := sortedNodes(req.BlacklistedNodes()); fmt.Sprint(got) != fmt.Sprint(nodeBL) {
		h.t.Errorf("node blacklist %v, want %v", got, nodeBL)
	}
	gotC := req.BlacklistedClusters()
	sort.Slice(gotC, func(i, j int) bool { return gotC[i] < gotC[j] })
	if fmt.Sprint(gotC) != fmt.Sprint(clusterBL) {
		h.t.Errorf("cluster blacklist %v, want %v", gotC, clusterBL)
	}
	if got := req.MinBandwidth(); got != minBW {
		h.t.Errorf("learned bandwidth %v, want %v", got, minBW)
	}
	if got := sortedLive(h.act.live); fmt.Sprint(got) != fmt.Sprint(survivors) {
		h.t.Errorf("survivors %v, want %v", got, survivors)
	}
}

func sortedNodes(ids []core.NodeID) []core.NodeID {
	out := append([]core.NodeID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedLive(m map[core.NodeID]core.ClusterID) []core.NodeID {
	out := make([]core.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestKernelDecisionScript pins the batch objective's decision sequence
// on a small world across grow, the within-band case, worst-node shrink
// with the worst-cluster bonus, and the inter-comm whole-cluster
// eviction: actions, victims, blacklists and the learned bandwidth. All
// report values are chosen binary-exact so the per-cluster partial sums
// cannot drift.
func TestKernelDecisionScript(t *testing.T) {
	h := newBatchHarness(t, map[core.NodeID]core.ClusterID{
		"a1": "A", "a2": "A", "b1": "B", "b2": "B", "c1": "C", "c2": "C",
	})
	all := func(mk func(n core.NodeID, c core.ClusterID) metrics.Report) []metrics.Report {
		var out []metrics.Report
		for _, nc := range []struct {
			n core.NodeID
			c core.ClusterID
		}{{"a1", "A"}, {"a2", "A"}, {"b1", "B"}, {"b2", "B"}, {"c1", "C"}, {"c2", "C"}} {
			out = append(out, mk(nc.n, nc.c))
		}
		return out
	}

	// Period 0: everyone 75% efficient -> WAE 0.750 > EMax, grow by
	// round(6·0.75/0.4)-6 = 5.
	f := h.period(0, all(func(n core.NodeID, c core.ClusterID) metrics.Report {
		return rep(n, c, 0, 25, 0, 0, 100, 0)
	}))
	if f.Action != "add" || f.Added != 5 || f.WAE != 0.75 {
		t.Fatalf("period 0: want add 5 at WAE 0.75, got %q +%d (%s)", f.Action, f.Added, f.Detail)
	}

	// Period 1: 43.75% efficient -> within band, no action.
	f = h.period(1, all(func(n core.NodeID, c core.ClusterID) metrics.Report {
		return rep(n, c, 1, 56.25, 0, 0, 100, 0)
	}))
	if f.Action != "none" || f.Detail != "WAE 0.438 within [0.30,0.50]" {
		t.Fatalf("period 1: want none, got %q (%s)", f.Action, f.Detail)
	}

	// Period 2: idle jumps to 87.5%; the two-period smoothing puts the
	// WAE at (0.4375+0.125)/2 = 0.28125 < EMin, and the worst-cluster
	// bonus (tie broken towards cluster A) selects a1, a2.
	f = h.period(2, all(func(n core.NodeID, c core.ClusterID) metrics.Report {
		return rep(n, c, 2, 87.5, 0, 0, 100, 0)
	}))
	if f.Action != "remove-nodes" || f.Removed != 2 || f.WAE != 0.28125 {
		t.Fatalf("period 2: want remove-nodes 2 at WAE 0.28125, got %q -%d (%s)", f.Action, f.Removed, f.Detail)
	}

	// Period 3: cluster B's inter-cluster overhead dominates (50% vs
	// 12.5%) with WAE 0.1875 < EMin -> whole-cluster eviction, learned
	// bandwidth from B's reported achieved throughput.
	f = h.period(3, []metrics.Report{
		rep("b1", "B", 3, 37.5, 0, 50, 100, 2e6),
		rep("b2", "B", 3, 37.5, 0, 50, 100, 2e6),
		rep("c1", "C", 3, 62.5, 0, 12.5, 100, 0),
		rep("c2", "C", 3, 62.5, 0, 12.5, 100, 0),
	})
	if f.Action != "remove-cluster" || f.Removed != 2 {
		t.Fatalf("period 3: want remove-cluster 2, got %q -%d (%s)", f.Action, f.Removed, f.Detail)
	}

	// Period 4: the surviving cluster settles inside the band.
	f = h.period(4, []metrics.Report{
		rep("c1", "C", 4, 56.25, 0, 0, 100, 0),
		rep("c2", "C", 4, 56.25, 0, 0, 100, 0),
	})
	if f.Action != "none" {
		t.Fatalf("period 4: want none, got %q (%s)", f.Action, f.Detail)
	}

	h.finish([]int{5}, [][]core.NodeID{{"a1", "a2"}, {"b1", "b2"}},
		[]core.NodeID{"a1", "a2", "b1", "b2"}, []core.ClusterID{"B"}, 2e6,
		[]core.NodeID{"c1", "c2"})
}

// TestKernelBandwidthCulpritEviction pins the measurement-based
// cluster-drop rule: the per-cluster link-sample partials must single
// out the congested cluster, evacuate it and learn its measured pair
// bandwidth as the bound.
func TestKernelBandwidthCulpritEviction(t *testing.T) {
	h := newBatchHarness(t, map[core.NodeID]core.ClusterID{
		"d1": "D", "d2": "D", "e1": "E", "e2": "E", "f1": "F", "f2": "F",
	})
	link := func(peer core.ClusterID, sec, bytes float64) map[core.ClusterID]core.LinkSample {
		return map[core.ClusterID]core.LinkSample{peer: {Seconds: sec, Bytes: bytes}}
	}
	mk := func(n core.NodeID, c core.ClusterID, links map[core.ClusterID]core.LinkSample) metrics.Report {
		r := rep(n, c, 0, 87.5, 0, 0, 100, 0)
		r.Links = links
		return r
	}
	// Pair D-F moves 10 MB at 10 MB/s; pair D-E moves 2 MB at 0.5 MB/s.
	// Cluster E's best pair (0.5 MB/s) is under 10% of the healthiest
	// pair -> E is the culprit, evacuated with the measured bandwidth
	// becoming the learned bound.
	f := h.period(0, []metrics.Report{
		mk("d1", "D", link("F", 0.5, 5e6)),
		mk("d2", "D", link("F", 0.5, 5e6)),
		mk("e1", "E", link("D", 2, 1e6)),
		mk("e2", "E", link("D", 2, 1e6)),
		mk("f1", "F", nil),
		mk("f2", "F", nil),
	})
	if f.Action != "remove-cluster" || f.Removed != 2 || !strings.Contains(f.Detail, "cluster E best-pair bandwidth 500000 B/s") {
		t.Fatalf("want remove-cluster E of 2, got %q -%d (%s)", f.Action, f.Removed, f.Detail)
	}
	h.finish(nil, [][]core.NodeID{{"e1", "e2"}}, []core.NodeID{"e1", "e2"}, []core.ClusterID{"E"}, 5e5,
		[]core.NodeID{"d1", "d2", "f1", "f2"})
}

// TestKernelStreamSLOScript pins the streaming objective across its
// whole hysteresis state machine: the proportional grow on a
// violation, the dead band, the calm streak, the single sluggish
// shrink with a badness-ranked victim that is not blacklisted, and the
// streak restart after acting. All latency sums are binary-exact.
func TestKernelStreamSLOScript(t *testing.T) {
	h := newStreamHarness(t, map[core.NodeID]core.ClusterID{
		"a1": "A", "a2": "A", "b1": "B", "b2": "B",
	}, core.DefaultStreamSLO(2)) // target 2s; HighRatio 1, LowRatio 0.5, ShrinkAfter 4

	// Distinct badness per node so victim ranking has a unique order:
	// b2 is slow and mostly idle — the unambiguous first victim.
	reports := func(period int) []metrics.Report {
		return []metrics.Report{
			rep("a1", "A", period, 10, 0, 0, 100, 0),
			rep("a2", "A", period, 20, 0, 0, 100, 0),
			rep("b1", "B", period, 30, 0, 0, 100, 0),
			rep("b2", "B", period, 80, 0, 0, 50, 0),
		}
	}
	// Each cluster completes 10 items; per-item latency lat seconds.
	partials := func(lat float64) map[core.ClusterID]core.StreamObs {
		return map[core.ClusterID]core.StreamObs{
			"A": {Arrived: 10, Completed: 10, LatencySum: 10 * lat},
			"B": {Arrived: 10, Completed: 10, LatencySum: 10 * lat},
		}
	}

	// Period 0: mean latency 4s, health 0.5 -> SLO violated, grow
	// proportionally: round(4·(1/0.5 - 1)) = 4, within the 1x cap.
	h.observeStream(partials(4))
	f := h.period(0, reports(0))
	if f.Action != "add" || f.Added != 4 {
		t.Fatalf("period 0: want add 4, got %q +%d (%s)", f.Action, f.Added, f.Detail)
	}
	if !approx(f.WAE, 0.5) {
		t.Fatalf("period 0: health %v, want 0.5", f.WAE)
	}

	// Period 1: mean latency exactly on target, health 1.0 — inside the
	// hysteresis dead band: no violation, not calm either.
	h.observeStream(partials(2))
	f = h.period(1, reports(1))
	if f.Action != "none" {
		t.Fatalf("period 1: want none, got %q (%s)", f.Action, f.Detail)
	}

	// Periods 2-5: mean latency 0.5s, health 4 — calm. Three holds while
	// the streak builds, then the fourth consecutive calm period releases
	// exactly one node: the badness-worst b2, not blacklisted.
	for pi := 2; pi <= 4; pi++ {
		h.observeStream(partials(0.5))
		f = h.period(pi, reports(pi))
		if f.Action != "none" {
			t.Fatalf("period %d: want none while calm streak builds, got %q (%s)",
				pi, f.Action, f.Detail)
		}
	}
	h.observeStream(partials(0.5))
	f = h.period(5, reports(5))
	if f.Action != "remove-nodes" || f.Removed != 1 || !strings.Contains(f.Detail, "release 1") {
		t.Fatalf("period 5: want remove-nodes 1, got %q -%d (%s)", f.Action, f.Removed, f.Detail)
	}

	// Period 6: still calm, but the shrink restarted the streak — one
	// calm period is not four, so the kernel holds.
	h.observeStream(map[core.ClusterID]core.StreamObs{
		"A": {Arrived: 10, Completed: 10, LatencySum: 5},
		"B": {Arrived: 5, Completed: 5, LatencySum: 2.5},
	})
	f = h.period(6, reports(6))
	if f.Action != "none" {
		t.Fatalf("period 6: want none after streak restart, got %q (%s)", f.Action, f.Detail)
	}

	h.finish([]int{4}, [][]core.NodeID{{"b2"}}, nil, nil, 0, []core.NodeID{"a1", "a2", "b1"})
}

// TestKernelStreamSLOShed pins the straggler-shed path. The actuator
// "grants" every provision but the granted nodes never report, so the
// census never moves — exactly the stuck-violation shape the shed
// guard watches for. The kernel must flip from growing to shedding the
// badness-worst nodes, with the shed wording, and blacklist them: a
// shed is a judgement on the node, so the provisioner must not hand it
// back.
func TestKernelStreamSLOShed(t *testing.T) {
	h := newStreamHarness(t, map[core.NodeID]core.ClusterID{
		"a1": "A", "a2": "A", "b1": "B", "b2": "B",
	}, core.DefaultStreamSLO(2)) // StuckAfter 3: the fourth stuck violation sheds

	reports := func(period int) []metrics.Report {
		return []metrics.Report{
			rep("a1", "A", period, 10, 0, 0, 100, 0),
			rep("a2", "A", period, 20, 0, 0, 100, 0),
			rep("b1", "B", period, 30, 0, 0, 100, 0),
			rep("b2", "B", period, 80, 0, 0, 50, 0),
		}
	}
	// Mean latency 4s against a 2s target: health 0.5, every period.
	partials := func() map[core.ClusterID]core.StreamObs {
		return map[core.ClusterID]core.StreamObs{
			"A": {Arrived: 10, Completed: 10, LatencySum: 40},
			"B": {Arrived: 10, Completed: 10, LatencySum: 40},
		}
	}

	// Periods 0-2: three judged violations with no census growth — the
	// guard is still patient, so the kernel keeps asking for nodes.
	for pi := 0; pi <= 2; pi++ {
		h.observeStream(partials())
		f := h.period(pi, reports(pi))
		if f.Action != "add" || f.Added != 4 {
			t.Fatalf("period %d: want add 4 while the stuck streak builds, got %q +%d (%s)",
				pi, f.Action, f.Added, f.Detail)
		}
	}

	// Period 3: the fourth stuck violation gives up on growing and sheds
	// the badness-worst node instead.
	h.observeStream(partials())
	f := h.period(3, reports(3))
	if f.Action != "remove-nodes" || f.Removed != 1 {
		t.Fatalf("period 3: want remove-nodes 1, got %q -%d (%s)", f.Action, f.Removed, f.Detail)
	}
	if !strings.Contains(f.Detail, "straggler") {
		t.Fatalf("period 3: detail %q does not name the straggler shed", f.Detail)
	}

	// Period 4: still stuck at the smaller census — shed the next-worst.
	h.observeStream(partials())
	f = h.period(4, reports(4))
	if f.Action != "remove-nodes" || f.Removed != 1 {
		t.Fatalf("period 4: want remove-nodes 1, got %q -%d (%s)", f.Action, f.Removed, f.Detail)
	}

	h.finish([]int{4, 4, 4}, [][]core.NodeID{{"b2"}, {"b1"}}, []core.NodeID{"b1", "b2"}, nil, 0,
		[]core.NodeID{"a1", "a2"})
}

// TestStreamSLOReleasesWorstNode: the streaming objective's shrink
// victim is ranked by badness — the slow, communication-bound node goes
// first — while a violation grows and an empty fleet bootstraps.
func TestStreamSLOReleasesWorstNode(t *testing.T) {
	cfg := core.DefaultStreamSLO(5)
	cfg.ShrinkAfter = 1
	world := map[core.NodeID]core.ClusterID{"good": "c0", "bad": "c1", "ok": "c0"}
	reports := []metrics.Report{
		rep("good", "c0", 0, 5, 0, 0, 200, 0),
		rep("bad", "c1", 0, 30, 0, 50, 50, 0),
		rep("ok", "c0", 0, 10, 0, 0, 150, 0),
	}
	h := newStreamHarness(t, world, cfg)
	h.k.ObserveStream(core.StreamObs{Completed: 10, LatencySum: 10}) // mean 1s vs target 5s
	if f := h.period(0, reports); f.Action != "remove-nodes" || !strings.Contains(f.Detail, "release") {
		t.Fatalf("calm period: %q (%s), want one release", f.Action, f.Detail)
	}
	h.finish(nil, [][]core.NodeID{{"bad"}}, nil, nil, 0, []core.NodeID{"good", "ok"})

	hot := newStreamHarness(t, world, cfg)
	hot.k.ObserveStream(core.StreamObs{Completed: 10, LatencySum: 100}) // mean 10s vs target 5s
	if f := hot.period(0, reports); f.Action != "add" {
		t.Fatalf("violation: %q (%s), want add", f.Action, f.Detail)
	}

	empty := newStreamHarness(t, nil, cfg)
	if f := empty.period(0, nil); f.Action != "add" || f.Added != 1 {
		t.Fatalf("empty fleet: %q +%d, want a bootstrap add of 1", f.Action, f.Added)
	}
}

// TestStreamObservationWithoutReports: a period whose stream
// observation arrives before any node has reported records the
// observation's health — 2s target over an 8s mean latency is 0.25 —
// with no node statistics, and takes no action on it.
func TestStreamObservationWithoutReports(t *testing.T) {
	h := newStreamHarness(t, map[core.NodeID]core.ClusterID{"a1": "A", "a2": "A"}, core.DefaultStreamSLO(2))
	h.k.ObserveStream(core.StreamObs{Arrived: 10, Completed: 10, LatencySum: 80, Backlog: 5})
	f := h.period(0, nil)
	if f.WAE != 0.25 || f.Stats != 0 || f.Nodes != 2 || f.Action != "" {
		t.Fatalf("record %+v, want WAE 0.25 on 2 live nodes with no stats and no action", f)
	}
}

// --- allocation guards -------------------------------------------------

// TestEachReportNoAllocs pins the iteration-based report accessors:
// they must not copy the report maps.
func TestEachReportNoAllocs(t *testing.T) {
	k := newKernel(t, Config{}, &scriptedActuator{})
	for i := 0; i < 32; i++ {
		k.Report(rep(core.NodeID(fmt.Sprintf("n%02d", i)), "A", 0, 10, 0, 0, 100, 0))
	}
	count := 0
	fn := func(metrics.Report) bool { count++; return true }
	if allocs := testing.AllocsPerRun(100, func() { k.EachReport(fn) }); allocs != 0 {
		t.Errorf("Kernel.EachReport allocates %.1f per run, want 0", allocs)
	}
	if count == 0 {
		t.Fatal("EachReport visited no reports")
	}

	sk := NewSubKernel("A", 0, core.DefaultConfig().Weights)
	for i := 0; i < 32; i++ {
		sk.Report(rep(core.NodeID(fmt.Sprintf("n%02d", i)), "A", 0, 10, 0, 0, 100, 0))
	}
	if allocs := testing.AllocsPerRun(100, func() { sk.EachReport(fn) }); allocs != 0 {
		t.Errorf("SubKernel.EachReport allocates %.1f per run, want 0", allocs)
	}
}

// --- tick cost benchmarks ----------------------------------------------

// benchSummary fabricates one cluster's summary with a mid-band WAE so
// the benchmarked Tick never acts (no reset, state persists across
// iterations) and a bounded proposal list, the intended big-grid shape.
func benchSummary(i, nodes, proposals int) ClusterSummary {
	c := core.ClusterID(fmt.Sprintf("c%04d", i))
	sum := ClusterSummary{
		Cluster: c, Seq: 1, Time: 100,
		Nodes: nodes, Stats: nodes,
		SpeedMax: 100, SpeedMin: 100,
		WorkSum:  40 * float64(nodes), // eff 0.4 at speed 100
		EffSum:   0.4 * float64(nodes),
		SpeedSum: 100 * float64(nodes),
		InterSum: 0.05 * float64(nodes),
	}
	for p := 0; p < proposals; p++ {
		sum.Proposals = append(sum.Proposals, NodeSample{
			Node:  core.NodeID(fmt.Sprintf("%s-n%03d", c, p)),
			Speed: 100, Idle: 0.55, InterComm: 0.05,
		})
	}
	return sum
}

// BenchmarkRootKernelTick measures the sharded root's per-period cost:
// O(clusters · proposal cap), independent of the node count. The
// 10k/100k arms back the EXPERIMENTS.md table and the bench gate.
func BenchmarkRootKernelTick(b *testing.B) {
	for _, bc := range []struct {
		name              string
		clusters, perClus int
	}{
		{"200nodes_2clusters", 2, 100},
		{"2knodes_20clusters", 20, 100},
		{"10knodes_100clusters", 100, 100},
		{"100knodes_1000clusters", 1000, 100},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ecfg := core.DefaultConfig()
			rk, err := NewRoot(Config{Engine: &ecfg}, &worldActuator{live: map[core.NodeID]core.ClusterID{}})
			if err != nil {
				b.Fatal(err)
			}
			clusters := make([]core.ClusterID, 0, bc.clusters)
			for i := 0; i < bc.clusters; i++ {
				sum := benchSummary(i, bc.perClus, 8)
				clusters = append(clusters, sum.Cluster)
				rk.Ingest(sum)
			}
			total := bc.clusters * bc.perClus
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := rk.Tick(100, clusters, total)
				if rec.Action != "none" {
					b.Fatalf("benchmark tick acted: %q (%s)", rec.Action, rec.Detail)
				}
			}
		})
	}
}

// BenchmarkFlatKernelTick is the contrast arm: the single-process
// Kernel's tick runs every sub-kernel's O(nodes log nodes) per-node
// smoothing in line with the root, the cost the message-passing tree
// spreads over the clusters.
func BenchmarkFlatKernelTick(b *testing.B) {
	for _, nodes := range []int{200, 2000, 10000} {
		b.Run(fmt.Sprintf("%dnodes", nodes), func(b *testing.B) {
			ecfg := core.DefaultConfig()
			k, err := New(Config{Engine: &ecfg}, &worldActuator{live: map[core.NodeID]core.ClusterID{}})
			if err != nil {
				b.Fatal(err)
			}
			live := make([]core.NodeID, 0, nodes)
			for i := 0; i < nodes; i++ {
				id := core.NodeID(fmt.Sprintf("n%05d", i))
				live = append(live, id)
				// Idle 55% at speed 100: eff 0.45, inside the band.
				k.Report(rep(id, core.ClusterID(fmt.Sprintf("c%04d", i/100)), 0, 55, 0, 0, 100, 0))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := k.Tick(100, live)
				if rec.Action != "none" {
					b.Fatalf("benchmark tick acted: %q (%s)", rec.Action, rec.Detail)
				}
			}
		})
	}
}
