package chaos

import (
	"fmt"
	"net"
	"sync/atomic"

	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/faults"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/shardnode"
)

// chaosSecret is the shared shard secret the networked harness uses; its
// value is irrelevant (everything runs on loopback), it only exercises the
// auth path.
const chaosSecret = "chaos-secret"

// node is one shard's full lifecycle: its journal directory on the
// fault-injecting filesystem, the currently running journaled platform,
// and — in networked mode — the shard node adplatformd would run over it
// (shardnode: RPC server, gate, rearm handler) plus the coordinator's
// fault-wrapped client to it.
type node struct {
	idx   int
	dir   string
	ffs   *faults.FaultFS
	jopts journal.Options
	boot  func() (*platform.Platform, error)

	// Journaled is the running platform. It is replaced on crash/restart,
	// which only ever happens between driver rounds (after every worker has
	// joined), so readers never race the swap.
	*platform.Journaled

	// down simulates a process that stopped answering without losing its
	// disk — the mid-round owner-kill the replica-failover scenario needs.
	// The health gate reports the node unavailable while it is set; the
	// round-end sweep crash-recovers the node and clears it.
	down atomic.Bool

	// Networked mode only.
	sn     *shardnode.Node
	tr     *faults.Transport
	remote *cluster.RemoteShard // over a client whose transport is tr
}

// open boots or recovers the node's platform from its journal directory.
// In networked mode a reopen is the process starting again: its shard node
// comes back over the new platform on the same address, so the
// coordinator's client keeps working.
func (n *node) open() error {
	jp, err := platform.OpenJournaled(n.dir, n.jopts, n.boot)
	if err != nil {
		return fmt.Errorf("shard %d: open: %w", n.idx, err)
	}
	n.Journaled = jp
	if n.sn != nil {
		return n.sn.Restart(jp)
	}
	return nil
}

// crash kills the node the way a power cut would: the running platform is
// abandoned without Close (a real crash doesn't get to flush), the disk is
// torn back to its durable watermark plus a deterministic slice of the
// unsynced tail, and the platform is recovered from what survived. In
// networked mode the shard node dies with the process.
func (n *node) crash() error {
	if n.sn != nil {
		n.sn.Kill()
	}
	n.Journaled = nil // abandon: unflushed, unacknowledged appends die with us
	if err := n.ffs.Crash(); err != nil {
		return fmt.Errorf("shard %d: tearing disk: %w", n.idx, err)
	}
	if err := n.open(); err != nil {
		return fmt.Errorf("shard %d: recovery: %w", n.idx, err)
	}
	return nil
}

// serve starts the node's shard node over the running platform, on an
// ephemeral loopback port it is advertised as.
func (n *node) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("shard %d: listen: %w", n.idx, err)
	}
	n.sn, err = shardnode.Start(n.Journaled, ln, shardnode.Config{
		RPC:       rpc.Options{Secret: chaosSecret},
		Advertise: ln.Addr().String(),
	})
	return err
}

// In-process mode hands the node itself to the cluster as the slot member.
// Traffic, platform.Member and the local-member extension are the embedded
// platform's own, so the cluster's one stable handle follows the node across
// crash/restart cycles as the pointer is replaced underneath it. The shipper
// closure lives on the platform and does not survive a swap: the harness
// re-arms it (ReplicaSet.Heal, which ends with the arm step) after every
// recovery. Two methods are the node's, not the platform's:

var (
	_ cluster.Shard          = (*node)(nil)
	_ cluster.HealthReporter = (*node)(nil)
)

// Healthy surfaces the simulated kill and the journal's sticky failure
// state: a shard that cannot prove durability must stop taking writes, and
// the cluster's health gate turns that into the typed ErrShardUnavailable
// the accounting relies on.
func (n *node) Healthy() bool { return !n.down.Load() && n.Journaled.Healthy() }

// Close shadows the platform's: the harness owns a node's lifecycle (crash,
// recover, final close), a cluster that holds it as a member does not.
func (n *node) Close() error { return nil }
