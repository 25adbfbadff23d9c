package main

import (
	"fmt"
	"log"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/health"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/rpc"
)

// parsePeerGroups parses the -peers list into slot groups. Groups are
// comma-separated; within a group, '/' separates the slot owner from its
// replica addresses:
//
//	-peers a:9001/a2:9001,b:9001
//
// is a two-slot cluster whose first slot has one journal-shipping replica.
// Scheme-qualified addresses (http://host:port) pass through: the "//" of
// a scheme is not a group separator.
func parsePeerGroups(s string) [][]string {
	// Hide scheme separators from the '/' split, then restore them.
	const mark = "\x00"
	var out [][]string
	for _, grp := range strings.Split(s, ",") {
		grp = strings.ReplaceAll(grp, "://", mark)
		var members []string
		for _, m := range strings.Split(grp, "/") {
			m = strings.ReplaceAll(m, mark, "://")
			if m = strings.TrimSpace(m); m != "" {
				members = append(members, m)
			}
		}
		if len(members) > 0 {
			out = append(out, members)
		}
	}
	return out
}

// peerDialer hands out RPC clients and shard handles for peer addresses,
// caching one client per base URL so membership refreshes and repeated
// admin operations never leak connection pools.
type peerDialer struct {
	secret  string
	timeout time.Duration
	hedge   time.Duration

	mu      sync.Mutex
	clients map[string]*rpc.Client
}

func newPeerDialer(opts options) *peerDialer {
	return &peerDialer{
		secret:  opts.RPCSecret,
		timeout: opts.RPCTimeout,
		hedge:   opts.HedgeAfter,
		clients: make(map[string]*rpc.Client),
	}
}

// client returns the cached client for addr, dialing on first use.
func (d *peerDialer) client(addr string) *rpc.Client {
	url := peerURL(addr)
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.clients[url]; ok {
		return c
	}
	c := rpc.NewClient(url, rpc.Options{
		Secret:      d.secret,
		CallTimeout: d.timeout,
		HedgeDelay:  d.hedge,
		Registry:    obs.Default,
	})
	d.clients[url] = c
	return c
}

// chain builds a slot handle: owner followed by one RemoteShard per
// follower address. The returned remotes are the followers, for health
// gating.
func (d *peerDialer) chain(owner cluster.Shard, followers []string) (*cluster.ReplicaSet, []*cluster.RemoteShard) {
	remotes := make([]*cluster.RemoteShard, len(followers))
	shards := make([]cluster.Shard, len(followers))
	for i, a := range followers {
		remotes[i] = cluster.NewRemoteShard(d.client(a))
		shards[i] = remotes[i]
	}
	return cluster.NewReplicaSet(owner, shards...), remotes
}

// shard builds the routable handle for one slot: a chain over one
// RemoteShard per address. The router-side ReplicaSet routes writes to the
// owner and fails reads over; it never arms shipping — the journal chain
// runs on the owner node itself (its -replicate flag). The returned
// remotes are every member, owner first.
func (d *peerDialer) shard(owner string, replicas []string) (*cluster.ReplicaSet, []*cluster.RemoteShard) {
	o := cluster.NewRemoteShard(d.client(owner))
	rs, followers := d.chain(o, replicas)
	return rs, append([]*cluster.RemoteShard{o}, followers...)
}

// dialInfo is the cluster.RemoteMembershipSource Dial hook: it rebuilds a
// slot handle from an advertised ring entry, reusing cached clients.
func (d *peerDialer) dialInfo(si rpc.ShardInfo) *cluster.ReplicaSet {
	s, _ := d.shard(si.Addr, si.Replicas)
	return s
}

// membershipAdmin implements httpapi.ClusterAdmin over the router's
// cluster coordinator: the HTTP admin surface for growing, shrinking, and
// failing over the fleet at runtime. It holds no lock of its own: the
// cluster orders every membership change under its replication lock.
type membershipAdmin struct {
	clu    *cluster.Cluster
	dial   *peerDialer
	wait   time.Duration
	logger *log.Logger
}

var _ httpapi.ClusterAdmin = (*membershipAdmin)(nil)

func wireReport(rep cluster.ReshardReport) httpapi.ReshardReportWire {
	return httpapi.ReshardReportWire{
		UsersMoved: rep.UsersMoved,
		CutoverMS:  float64(rep.Cutover) / float64(time.Millisecond),
		Version:    rep.Version,
	}
}

// Status implements httpapi.ClusterAdmin.
func (a *membershipAdmin) Status() httpapi.ClusterStatusResponse {
	ring, slots := a.clu.RingAndSlots()
	out := httpapi.ClusterStatusResponse{
		Version: ring.Version,
		Slots:   make([]httpapi.ClusterSlotStatus, len(slots)),
	}
	out.MigrationActive, out.PendingRemovals = a.clu.MigrationStatus()
	for i, rs := range slots {
		out.Slots[i] = httpapi.ClusterSlotStatus{
			Slot: i, Healthy: rs.Healthy(), Addr: ring.Shards[i].Addr, Replicas: ring.Shards[i].Replicas,
		}
	}
	if rep := a.clu.LastReshard(); rep.Version != 0 {
		w := wireReport(rep)
		out.LastReshard = &w
	}
	return out
}

// AddShard implements httpapi.ClusterAdmin: dial the new node (and its
// replicas), gate on their health, and run the live reshard.
func (a *membershipAdmin) AddShard(addr string, replicas []string) (httpapi.ReshardReportWire, error) {
	s, remotes := a.dial.shard(addr, replicas)
	if err := waitForPeers(remotes, a.wait, a.logger); err != nil {
		return httpapi.ReshardReportWire{}, fmt.Errorf("joining node not healthy: %w", err)
	}
	rep, err := a.clu.AddSet(s)
	if err != nil {
		return httpapi.ReshardReportWire{}, err
	}
	a.logger.Printf("admin: added shard %s (replicas %v): moved %d users, cutover %v, ring v%d",
		addr, replicas, rep.UsersMoved, rep.Cutover.Round(time.Microsecond), rep.Version)
	return wireReport(rep), nil
}

// RemoveShard implements httpapi.ClusterAdmin.
func (a *membershipAdmin) RemoveShard() (httpapi.ReshardReportWire, error) {
	rep, err := a.clu.RemoveShard()
	if err != nil {
		return httpapi.ReshardReportWire{}, err
	}
	a.logger.Printf("admin: removed shard: moved %d users, cutover %v, ring v%d",
		rep.UsersMoved, rep.Cutover.Round(time.Microsecond), rep.Version)
	return wireReport(rep), nil
}

// Promote implements httpapi.ClusterAdmin: fail the slot over to its
// best-synced replica through the full failover protocol — promotion
// under the write fence, ring-version bump (fencing the deposed owner),
// ring push, and a rearm RPC telling the new owner to ship its journal
// to the remaining followers, all without restarting any process.
// Without force the cluster refuses while the owner is still healthy
// (ErrOwnerHealthy, surfaced as 409).
func (a *membershipAdmin) Promote(slot int, force bool) (httpapi.PromoteResponse, error) {
	member, err := a.clu.FailoverSlot(slot, force)
	if err != nil {
		return httpapi.PromoteResponse{}, err
	}
	ring := a.clu.RingInfo()
	addr, v := "", ring.Version
	if slot < len(ring.Shards) {
		addr = ring.Shards[slot].Addr
	}
	a.logger.Printf("admin: promoted slot %d member %d (%s) to owner; ring v%d pushed, shipping re-armed (force=%v)",
		slot, member, addr, v, force)
	return httpapi.PromoteResponse{Slot: slot, Member: member, Addr: addr, Version: v}, nil
}

// ResumeReshard implements httpapi.ClusterAdmin.
func (a *membershipAdmin) ResumeReshard() error { return a.clu.ResumeReshard() }

// armShipping points owner's journal shipping at the given follower
// nodes, rebuilding the chain in place: every acknowledged write from here
// on is applied on each of them before the ack. It is the shard node's
// handler for the rearm RPC — after a promotion (or heal) the router tells
// the slot's current owner whom to ship to, the no-process-restart re-arm
// the automatic failover protocol depends on — and the first half of
// -replicate. An empty follower list is a chain with no follower, which
// arms no shipping at all.
func armShipping(owner *platform.Journaled, dialer *peerDialer, followers []string, logger *log.Logger) (*cluster.ReplicaSet, []*cluster.RemoteShard, error) {
	rs, remotes := dialer.chain(owner, followers)
	if err := rs.Chain(); err != nil {
		return nil, nil, err
	}
	if len(followers) == 0 {
		logger.Printf("journal shipping disarmed")
	} else {
		logger.Printf("journal shipping armed to %d follower(s): %v", len(followers), followers)
	}
	return rs, remotes, nil
}

// armReplication is -replicate at boot: arm shipping to the listed
// followers, gate on their health, then Heal, which reinstalls each from
// the owner's state and arms the chain again.
func armReplication(owner *platform.Journaled, dialer *peerDialer, opts options, logger *log.Logger) error {
	addrs := slices.Concat(parsePeerGroups(opts.Replicate)...)
	if len(addrs) == 0 {
		return fmt.Errorf("-replicate is empty after parsing %q", opts.Replicate)
	}
	rs, remotes, err := armShipping(owner, dialer, addrs, logger)
	if err != nil {
		return err
	}
	if err := waitForPeers(remotes, opts.PeerWait, logger); err != nil {
		return err
	}
	return rs.Heal()
}

// startFailoverSupervisor arms automatic failure detection and recovery
// over the router's cluster: probes ride each slot owner's circuit breaker,
// failover runs the full promote-fence-push-rearm protocol, heal resyncs a
// returning deposed owner back in as a follower. The supervisor reads the
// live ring, so every slot is supervised however it joined — boot, admin
// reshard or stale-ring refresh. The caller closes the returned supervisor.
func startFailoverSupervisor(admin *membershipAdmin, opts options, logger *log.Logger) *health.Supervisor {
	sup := health.NewSupervisor(admin.clu, health.Config{
		Interval:  opts.FailoverDetect,
		Detector:  health.DetectorConfig{FailThreshold: opts.FailoverMisses},
		HealEvery: opts.FailoverHeal,
		Metrics:   health.NewMetrics(obs.Default),
		Logf:      logger.Printf,
	})
	logger.Printf("automatic failover armed over the ring (%d slot(s) now): probe every %v, down after %d misses, heal check every %d ticks",
		admin.clu.Shards(), opts.FailoverDetect, opts.FailoverMisses, opts.FailoverHeal)
	return sup
}
