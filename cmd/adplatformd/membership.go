package main

import (
	"context"
	"fmt"
	"log"
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

// shard builds the routable handle for one slot: a ReplicaSet over one
// RemoteShard per address. The router-side ReplicaSet routes writes to the
// owner and fails reads over; it never arms shipping — the journal chain
// runs on the owner node itself (its -replicate flag). The returned
// remotes are every member, for health gating.
func (d *peerDialer) shard(owner string, replicas []string) (*cluster.ReplicaSet, []*cluster.RemoteShard) {
	members := []*cluster.RemoteShard{cluster.NewRemoteShard(d.client(owner))}
	followers := make([]cluster.Shard, len(replicas))
	for i, r := range replicas {
		f := cluster.NewRemoteShard(d.client(r))
		members = append(members, f)
		followers[i] = f
	}
	return cluster.NewReplicaSet(members[0], followers...), members
}

// dialInfo is the cluster.RemoteMembershipSource Dial hook: it rebuilds a
// slot handle from an advertised ring entry, reusing cached clients.
func (d *peerDialer) dialInfo(si rpc.ShardInfo) *cluster.ReplicaSet {
	s, _ := d.shard(si.Addr, si.Replicas)
	return s
}

// membershipAdmin implements httpapi.ClusterAdmin over the router's
// cluster coordinator: the HTTP admin surface for growing, shrinking, and
// failing over the fleet at runtime.
type membershipAdmin struct {
	// mu serializes admin mutations so concurrent operator calls cannot
	// interleave a dial-and-join with a removal.
	mu     sync.Mutex
	clu    *cluster.Cluster
	dial   *peerDialer
	wait   time.Duration
	logger *log.Logger
	// sup is the failover supervisor when -failover-detect armed one (nil
	// otherwise); membership changes keep its watch list equal to the ring.
	sup *health.Supervisor
}

// watchSlot puts a slot under the failover supervisor, if one is armed.
func (a *membershipAdmin) watchSlot(slot int) {
	if a.sup != nil {
		a.sup.Watch(slot, &routerSlotCtrl{clu: a.clu, slot: slot, logger: a.logger})
	}
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
	slots := a.clu.ReplicaSets()
	ring := a.clu.RingInfo()
	out := httpapi.ClusterStatusResponse{
		Version: ring.Version,
		Slots:   make([]httpapi.ClusterSlotStatus, 0, len(slots)),
	}
	out.MigrationActive, out.PendingRemovals = a.clu.MigrationStatus()
	// The two reads are not one snapshot; report the slots both agree on.
	for i := 0; i < len(slots) && i < len(ring.Shards); i++ {
		out.Slots = append(out.Slots, httpapi.ClusterSlotStatus{
			Slot: i, Healthy: slots[i].Healthy(), Addr: ring.Shards[i].Addr, Replicas: ring.Shards[i].Replicas,
		})
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
	a.mu.Lock()
	defer a.mu.Unlock()
	s, remotes := a.dial.shard(addr, replicas)
	if err := waitForPeers(remotes, a.wait, a.logger); err != nil {
		return httpapi.ReshardReportWire{}, fmt.Errorf("joining node not healthy: %w", err)
	}
	rep, err := a.clu.AddSet(s)
	if err != nil {
		return httpapi.ReshardReportWire{}, err
	}
	a.watchSlot(a.clu.Shards() - 1)
	a.logger.Printf("admin: added shard %s (replicas %v): moved %d users, cutover %v, ring v%d",
		addr, replicas, rep.UsersMoved, rep.Cutover.Round(time.Microsecond), rep.Version)
	return wireReport(rep), nil
}

// RemoveShard implements httpapi.ClusterAdmin.
func (a *membershipAdmin) RemoveShard() (httpapi.ReshardReportWire, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	// The victim leaves the watch list before it leaves the ring, so no
	// probe or promotion races the removal; a refused removal keeps the
	// slot, and it is watched again.
	victim := a.clu.Shards() - 1
	if a.sup != nil {
		a.sup.Unwatch(victim)
	}
	rep, err := a.clu.RemoveShard()
	if err != nil {
		a.watchSlot(victim)
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
	a.mu.Lock()
	defer a.mu.Unlock()
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
func (a *membershipAdmin) ResumeReshard() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.clu.ResumeReshard()
}

// armReplication wires the owner side of a replica chain for -replicate:
// dial each follower node, gate on its health, then Chain and Heal so
// every acknowledged write from here on is applied on every follower
// before the ack. After a promotion the router re-arms the new owner's
// chain over the rearm RPC (see rearmShipping) — no restart needed.
func armReplication(owner *platform.Journaled, dialer *peerDialer, opts options, logger *log.Logger) error {
	addrs := splitPeers(opts.Replicate)
	if len(addrs) == 0 {
		return fmt.Errorf("-replicate is empty after parsing %q", opts.Replicate)
	}
	followers := make([]cluster.Shard, len(addrs))
	remotes := make([]*cluster.RemoteShard, len(addrs))
	for i, a := range addrs {
		remotes[i] = cluster.NewRemoteShard(dialer.client(a))
		followers[i] = remotes[i]
	}
	if err := waitForPeers(remotes, opts.PeerWait, logger); err != nil {
		return err
	}
	rs := cluster.NewReplicaSet(owner, followers...)
	if err := rs.Chain(); err != nil {
		return err
	}
	if err := rs.Heal(); err != nil {
		return err
	}
	logger.Printf("journal shipping armed to %d follower(s): %v", len(addrs), addrs)
	return nil
}

// rearmShipping is the shard node's handler for the rearm RPC: after a
// promotion (or heal) the router tells the slot's current owner which
// followers to ship its journal to, and the node rebuilds the shipping
// chain in place — the no-process-restart re-arm the automatic failover
// protocol depends on. An empty follower list disarms shipping (the node
// was demoted to a follower and must not ship).
func rearmShipping(owner *platform.Journaled, dialer *peerDialer, logger *log.Logger) func([]string) error {
	return func(followers []string) error {
		if len(followers) == 0 {
			owner.SetShipper(nil)
			logger.Printf("rearm: journal shipping disarmed")
			return nil
		}
		members := make([]cluster.Shard, len(followers))
		for i, a := range followers {
			members[i] = cluster.NewRemoteShard(dialer.client(a))
		}
		rs := cluster.NewReplicaSet(owner, members...)
		if err := rs.Chain(); err != nil {
			return err
		}
		logger.Printf("rearm: journal shipping re-armed to %d follower(s): %v", len(followers), followers)
		return nil
	}
}

// routerSlotCtrl adapts one ring slot to the health supervisor: probes
// ride the owner client's circuit breaker, failover runs the full
// promote-fence-push-rearm protocol, and heal resyncs a returning
// deposed owner back in as a follower.
type routerSlotCtrl struct {
	clu    *cluster.Cluster
	slot   int
	logger *log.Logger
}

func (c *routerSlotCtrl) ProbeOwner(ctx context.Context) error {
	return c.clu.ProbeSlotOwner(ctx, c.slot)
}

func (c *routerSlotCtrl) Failover(context.Context) error {
	member, err := c.clu.FailoverSlot(c.slot, false)
	if err != nil {
		return err
	}
	c.logger.Printf("failover: promoted slot %d member %d; ring now v%d", c.slot, member, c.clu.Version())
	return nil
}

func (c *routerSlotCtrl) NeedsHeal() bool { return c.clu.SlotDegraded(c.slot) }

func (c *routerSlotCtrl) Heal(context.Context) error { return c.clu.HealSlot(c.slot) }

// startFailoverSupervisor arms automatic failure detection and recovery
// over every ring slot: the boot-time ones here, and from then on the
// admin's AddShard / RemoveShard keep the watch list equal to the ring.
// The caller closes the returned supervisor.
func startFailoverSupervisor(admin *membershipAdmin, opts options, logger *log.Logger) *health.Supervisor {
	admin.mu.Lock()
	defer admin.mu.Unlock()
	admin.sup = health.NewSupervisor(health.Config{
		Interval:  opts.FailoverDetect,
		Detector:  health.DetectorConfig{FailThreshold: opts.FailoverMisses},
		HealEvery: opts.FailoverHeal,
		Metrics:   health.NewMetrics(obs.Default),
		Logf:      logger.Printf,
	})
	n := admin.clu.Shards()
	for i := 0; i < n; i++ {
		admin.watchSlot(i)
	}
	logger.Printf("automatic failover armed over %d slot(s): probe every %v, down after %d misses, heal check every %d ticks",
		n, opts.FailoverDetect, opts.FailoverMisses, opts.FailoverHeal)
	return admin.sup
}
