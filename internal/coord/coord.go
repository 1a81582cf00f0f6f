// Package coord implements the paper's Figure-2 adaptation loop ONCE,
// independently of the runtime that executes the application. It owns
// everything between "statistics arrive" and "effects are requested",
// split the way the paper's §7 hierarchy splits it (shard.go): per
// cluster SubKernels do report ingestion and two-period smoothing, and
// one RootKernel runs the decision — the objective, requirements
// learning (minimum bandwidth, blacklists), cluster eviction and its
// fallback, bootstrap when the computation died, optional opportunistic
// migration, fair-share yield and the post-action reset. The Kernel in
// this file is the two halves composed in one process.
//
// Runtimes plug in through the small Actuator interface: the
// discrete-event simulator (internal/des) and the real
// registry+transport runtime (adapt) both feed metrics.Report values
// in and apply the kernel's effects out, so the adaptation policy can
// never diverge between them again. This is the separation the Cactus
// Worm line of work argues for — an adaptation manager decoupled from
// the execution substrate — and the precondition for hardening or
// replicating the coordinator without doing the work twice.
package coord

import (
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Veto is the scheduler-side filter derived from the learned
// requirements: it rejects blacklisted nodes and clusters.
type Veto = func(core.NodeID, core.ClusterID) bool

// Actuator is the runtime-facing side of the kernel: the four effects
// an adaptation decision can require. Implementations must be safe to
// call from the kernel's Tick (they are invoked with the kernel's lock
// held, so they must not call back into the kernel synchronously).
//
// The contract per method:
//
//   - Provision asks the runtime's scheduler for up to n nodes that
//     meet the learned minimum uplink bandwidth (0 = no bound),
//     skipping anything the veto rejects, preferring sites the
//     application already occupies (locality). It returns how many
//     nodes were actually granted.
//   - Evict signals the listed nodes to leave and returns the subset
//     that was actually signalled; the kernel blacklists exactly that
//     subset. The kernel never passes protected nodes.
//   - ObservedBandwidth is the grid monitoring service's NWS-style
//     view of the cluster's access-link capacity (0 = no such service
//     or link never exercised). It is the preferred source for the
//     learned bandwidth bound; per-report achieved shares are only the
//     fallback (see learnClusterBandwidth).
//   - Annotate marks an adaptation event on the runtime's timeline
//     (figures, logs). Purely informational.
type Actuator interface {
	Provision(n int, minBandwidth float64, veto Veto) int
	Evict(victims []core.NodeID, reason string) []core.NodeID
	ObservedBandwidth(cluster core.ClusterID) float64
	Annotate(label string)
}

// Migrator is the optional Actuator extension for opportunistic
// migration (the paper's §7 future-work item): a scheduler that can
// rank idle resources by application-specific speed and grant nodes
// from a named site. Actuators that do not implement it simply never
// migrate opportunistically.
type Migrator interface {
	// BestAvailable returns the free, non-vetoed cluster with the
	// fastest processors, its per-processor speed, and how many nodes
	// it has free ("" when nothing is available).
	BestAvailable(veto Veto) (core.ClusterID, float64, int)
	// ProvisionFrom is Provision restricted to one cluster.
	ProvisionFrom(cluster core.ClusterID, n int, minBandwidth float64, veto Veto) int
}

// PeriodRecord is one coordinator tick — the unified period-log entry
// both runtimes (and internal/trace) render.
type PeriodRecord struct {
	Time    float64 // seconds (virtual for the DES, since start for the real runtime)
	WAE     float64
	Nodes   int    // live participants at the tick
	Stats   int    // node reports the tick decided on (0 = nothing to decide)
	Action  string // core.Action string, "" when idle/monitor-only
	Detail  string
	Added   int
	Removed int
}

// Annotation marks an adaptation or scenario event on the time axis.
type Annotation struct {
	Time  float64
	Label string
}

// Config tunes a Kernel.
type Config struct {
	// Engine configures the batch decision engine; when Objective is
	// nil and Engine is set, the kernel runs the classic WAE band
	// (core.BatchWAE). Nil Engine with nil Objective means the kernel
	// only monitors (it records health but never decides).
	Engine *core.Config
	// Objective overrides the adaptation objective: the policy that
	// turns one period's observations into a grow/hold/shrink verdict.
	// Objectives may be stateful (hysteresis) and must not be shared
	// between kernels.
	Objective core.Objective
	// MonitorOnly computes and records but never decides or acts (the
	// paper's "runtime 3", used to price the adaptation support).
	MonitorOnly bool
	// DisableBlacklist lets the scheduler hand back removed resources
	// (ablation: a persistent bad link then causes oscillation).
	DisableBlacklist bool
	// Opportunistic enables opportunistic migration when the actuator
	// implements Migrator.
	Opportunistic bool
	// OpportunisticFactor is how much faster an available cluster must
	// be than the slowest live node to trigger a migration (default 1.5).
	OpportunisticFactor float64
	// Pressure, when set, is the shared node pool's reclaim signal: how
	// many nodes this kernel's job holds beyond its fair share while
	// other jobs are starved. The kernel yields that many of its worst
	// nodes at the next tick — WITHOUT blacklisting them (they are not
	// bad, the grid is just contended; the pool may legitimately hand
	// them back later). This is how a coordinator participates in
	// multi-job arbitration instead of assuming it owns the scheduler.
	Pressure func() int
}

// Kernel is the single-process coordinator: the sharded tree of
// shard.go composed in process. Each cluster's reports land at its own
// SubKernel, proposing every reporting node (no proposal cap), and Tick
// summarises every sub and hands the summaries straight to one
// RootKernel — the only implementation of the Figure-2 policy. The
// message-passing drivers (internal/des and adapt in sharded mode) run
// the same two halves with latency, acks and failover between them.
//
// It is safe for concurrent use: the real runtime feeds Report from
// transport handlers while its ticker calls Tick.
type Kernel struct {
	root *RootKernel

	mu        sync.Mutex
	subs      []*SubKernel // sorted by cluster
	clusters  []core.ClusterID
	byCluster map[core.ClusterID]*SubKernel
	clusterOf map[core.NodeID]core.ClusterID // nodes whose report a sub may hold
	liveBy    map[core.ClusterID][]core.NodeID
	// stream is the pending streaming observation for the next tick.
	// The root always receives it, empty when nothing was observed:
	// core.StreamHealth scores an empty observation the same neutral 1
	// as no observation at all, so a streaming objective is not judged
	// on the batch WAE while it waits for its first window.
	stream core.StreamObs
}

// New builds a Kernel. cfg.Engine is validated when present.
func New(cfg Config, act Actuator) (*Kernel, error) {
	root, err := NewRoot(cfg, act)
	if err != nil {
		return nil, err
	}
	// Every reporting node is proposed, so a cluster eviction takes
	// exactly the cluster's reporting nodes from the proposals.
	root.evictProposals = true
	return &Kernel{
		root:      root,
		byCluster: make(map[core.ClusterID]*SubKernel),
		clusterOf: make(map[core.NodeID]core.ClusterID),
		liveBy:    make(map[core.ClusterID][]core.NodeID),
	}, nil
}

// Objective returns the kernel's adaptation objective (nil when the
// kernel only monitors).
func (k *Kernel) Objective() core.Objective { return k.root.Objective() }

// Requirements exposes what the run has taught the kernel.
func (k *Kernel) Requirements() *core.Requirements { return k.root.Requirements() }

// Protect marks nodes as unremovable (the node hosting the root of the
// computation, and in the real system the process the user started).
func (k *Kernel) Protect(ids ...core.NodeID) { k.root.Protect(ids...) }

// SetProtected replaces the protected set — used by runtimes where the
// protected role moves (a new master is elected after a crash).
func (k *Kernel) SetProtected(ids ...core.NodeID) { k.root.SetProtected(ids...) }

// ObserveStream ingests one period's streaming observation; the next
// Tick consumes it. Partial observations within a period merge by
// summation.
func (k *Kernel) ObserveStream(o core.StreamObs) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.stream.Merge(o)
}

// Report ingests one node's per-period statistics into its cluster's
// sub-kernel, which keeps only the freshest report per node (batched
// deliveries may reorder).
func (k *Kernel) Report(rep metrics.Report) {
	k.mu.Lock()
	defer k.mu.Unlock()
	sk, ok := k.byCluster[rep.Cluster]
	if !ok {
		sk = NewSubKernel(rep.Cluster, 0, k.root.weights)
		k.byCluster[rep.Cluster] = sk
		i := sort.Search(len(k.clusters), func(i int) bool { return k.clusters[i] >= rep.Cluster })
		k.clusters = append(k.clusters, "")
		copy(k.clusters[i+1:], k.clusters[i:])
		k.clusters[i] = rep.Cluster
		k.subs = append(k.subs, nil)
		copy(k.subs[i+1:], k.subs[i:])
		k.subs[i] = sk
	}
	k.clusterOf[rep.Node] = rep.Cluster
	sk.Report(rep)
}

// Forget drops a departed node's state immediately (Tick also prunes
// nodes missing from the live set, so calling this is optional).
func (k *Kernel) Forget(id core.NodeID) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if c, ok := k.clusterOf[id]; ok {
		k.byCluster[c].Forget(id)
		delete(k.clusterOf, id)
	}
}

// EachReport calls fn for every stored report, stopping early when fn
// returns false. It allocates nothing (pinned by an AllocsPerRun
// guard); fn must not call back into the kernel.
func (k *Kernel) EachReport(fn func(metrics.Report) bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	more := true
	for _, sk := range k.subs {
		sk.EachReport(func(rep metrics.Report) bool {
			more = fn(rep)
			return more
		})
		if !more {
			return
		}
	}
}

// Tick runs one pass of the paper's Figure-2 loop at time now over the
// runtime's current live set, and returns the period's record. Reports
// of nodes no longer live are pruned; live nodes whose first period has
// not completed are simply missing, as in the paper ("the coordinator
// may miss data ... this causes small inaccuracies but does not
// influence the adaptation"). Successive ticks must not go back in
// time: the root keeps each cluster's freshest summary.
func (k *Kernel) Tick(now float64, live []core.NodeID) PeriodRecord {
	k.mu.Lock()
	defer k.mu.Unlock()

	for c, ids := range k.liveBy {
		k.liveBy[c] = ids[:0]
	}
	known := 0
	for _, id := range live {
		if c, ok := k.clusterOf[id]; ok {
			k.liveBy[c] = append(k.liveBy[c], id)
			known++
		}
	}
	if known < len(k.clusterOf) {
		// Some reporting nodes left: their reports are pruned below.
		liveSet := make(map[core.NodeID]bool, len(live))
		for _, id := range live {
			liveSet[id] = true
		}
		for id := range k.clusterOf {
			if !liveSet[id] {
				delete(k.clusterOf, id)
			}
		}
	}

	epoch := k.root.ResetEpoch()
	for _, sk := range k.subs {
		sum := sk.Summarize(now, k.liveBy[sk.cluster])
		sum.Epoch = epoch
		k.root.Ingest(sum)
	}
	stream := k.stream
	k.stream = core.StreamObs{}
	rec := k.root.tick(now, k.clusters, len(live), &stream)
	if k.root.ResetEpoch() != epoch {
		// The root acted: the stored reports describe the pre-action
		// configuration, so every sub starts the next period fresh.
		for _, sk := range k.subs {
			sk.Reset()
		}
	}
	return rec
}

// smooth averages the overhead fractions of two consecutive periods
// and merges their link samples: per-period overheads are heavy-tailed
// (one big cross-cluster job transfer can dominate a node's period),
// and decisions as drastic as evacuating a cluster should not ride on
// one period's tail events. Speeds are always the latest benchmark
// measurement.
func smooth(cur, prev core.NodeStats) core.NodeStats {
	cur.Idle = (cur.Idle + prev.Idle) / 2
	cur.IntraComm = (cur.IntraComm + prev.IntraComm) / 2
	cur.InterComm = (cur.InterComm + prev.InterComm) / 2
	merged := make(map[core.ClusterID]core.LinkSample, len(cur.Links)+len(prev.Links))
	for _, links := range []map[core.ClusterID]core.LinkSample{cur.Links, prev.Links} {
		for peer, l := range links {
			m := merged[peer]
			m.Seconds += l.Seconds
			m.Bytes += l.Bytes
			merged[peer] = m
		}
	}
	if len(merged) > 0 {
		cur.Links = merged
	}
	return cur
}
