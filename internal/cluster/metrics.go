package cluster

import (
	"strconv"

	"github.com/treads-project/treads/internal/obs"
)

// clusterMetrics is the coordinator's instrumentation. The per-shard
// routed-op counters are resolved into a slice that travels with each
// membership value (shardOps), so the routing hot path does a slice load
// and an atomic add, nothing else.
type clusterMetrics struct {
	shardVec *obs.CounterVec // cluster_shard_user_ops_total{shard}

	replicatedOps    *obs.Counter
	divergence       *obs.Counter
	replicateSeconds *obs.Histogram
	gatherSeconds    *obs.Histogram

	// Reshard instrumentation: one reshardTotal per completed membership
	// change, usersMoved accumulated across them, cutoverSeconds observing
	// only the write-fence window (the availability cost of a reshard).
	reshardTotal      *obs.Counter
	reshardUsersMoved *obs.Counter
	reshardFailures   *obs.Counter
	reshardCutover    *obs.Histogram

	// Replica-chain instrumentation, shared by every ReplicaSet the
	// cluster routes through.
	replica replicaCounters
}

// replicaCounters instruments replica chains from the router's seat: reads
// served by followers, and promotions and resyncs on the recovery path.
// Journal shipping runs on the owner node, which counts it there.
type replicaCounters struct {
	failoverReads *obs.Counter
	replicaReads  *obs.Counter
	promotions    *obs.Counter
	resyncs       *obs.Counter
}

// newReplicaCounters registers the replica-chain families on reg (nil: a
// set outside any cluster counts into unexported instruments).
func newReplicaCounters(reg *obs.Registry) replicaCounters {
	return replicaCounters{
		failoverReads: reg.Counter("cluster_replica_failover_reads_total",
			"User-scoped reads served by a follower because the shard owner was unavailable."),
		replicaReads: reg.Counter("cluster_replica_reads_total",
			"User-scoped reads load-balanced onto a synced follower while the owner was healthy."),
		promotions: reg.Counter("cluster_replica_promotions_total",
			"Followers promoted to shard owner after an owner failure."),
		resyncs: reg.Counter("cluster_replica_resyncs_total",
			"Followers re-synchronized from their owner by a full state reinstall."),
	}
}

func newClusterMetrics(reg *obs.Registry) *clusterMetrics {
	return &clusterMetrics{
		shardVec: reg.CounterVec("cluster_shard_user_ops_total",
			"User-scoped operations routed to each shard; skew here means skew on the consistent-hash ring.",
			"shard"),
		replicatedOps: reg.Counter("cluster_replicated_ops_total",
			"Advertiser-scoped mutations replicated to every shard."),
		divergence: reg.Counter("cluster_replication_divergence_total",
			"Replicated mutations on which a shard disagreed with shard 0. Any nonzero value means drifted shard state."),
		replicateSeconds: reg.Histogram("cluster_replicate_seconds",
			"Fan-out time of a replicated advertiser mutation: issued to every slot owner at once, so the slowest owner's commit."),
		gatherSeconds: reg.Histogram("cluster_gather_seconds",
			"Scatter-gather fan-out time for cluster-wide reads (reach, reports, user listing)."),
		reshardTotal: reg.Counter("cluster_reshard_total",
			"Completed membership changes (shard additions and removals)."),
		reshardUsersMoved: reg.Counter("cluster_reshard_users_moved_total",
			"Users migrated between shards across all reshards."),
		reshardFailures: reg.Counter("cluster_reshard_failures_total",
			"Resharding attempts that failed before cutover, plus post-cutover removals that needed ResumeReshard."),
		reshardCutover: reg.Histogram("cluster_reshard_cutover_seconds",
			"Duration of the reshard write fence — the window during which user writes and aggregate reads block."),
		replica: newReplicaCounters(reg),
	}
}

// shardOps resolves the routed-ops counters of an n-slot membership,
// indexed by slot.
func (m *clusterMetrics) shardOps(n int) []*obs.Counter {
	ops := make([]*obs.Counter, n)
	for i := range ops {
		ops[i] = m.shardVec.With(strconv.Itoa(i))
	}
	return ops
}
