package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/health"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/shardnode"
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

// membershipAdmin implements httpapi.ClusterAdmin over the router's
// cluster coordinator: the HTTP admin surface for growing, shrinking, and
// failing over the fleet at runtime. It holds no lock of its own: the
// cluster orders every membership change under its replication lock.
type membershipAdmin struct {
	clu    *cluster.Cluster
	dial   *shardnode.Dialer
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
	s, remotes := a.dial.Shard(addr, replicas)
	if err := shardnode.WaitForPeers(remotes, a.wait, a.logger); err != nil {
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

// startFailoverSupervisor arms automatic failure detection and recovery
// over the router's cluster: probes ride each slot owner's circuit breaker,
// failover runs the full promote-fence-push-rearm protocol, heal resyncs a
// returning deposed owner back in as a follower. The supervisor reads the
// live ring, so every slot is supervised however it joined — boot, admin
// reshard or stale-ring refresh. The caller closes the returned supervisor.
func startFailoverSupervisor(admin *membershipAdmin, opts options, logger *log.Logger) *health.Supervisor {
	sup := health.NewSupervisor(admin.clu, health.Config{
		Interval: opts.FailoverDetect,
		Metrics:  health.NewMetrics(obs.Default),
		Logf:     logger.Printf,
	})
	logger.Printf("automatic failover armed over the ring (%d slot(s) now): probe every %v",
		admin.clu.Shards(), opts.FailoverDetect)
	return sup
}
