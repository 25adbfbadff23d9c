package chaos

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/faults"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/rpc"
)

// chaosSecret is the shared shard secret the networked harness uses; its
// value is irrelevant (everything runs on loopback), it only exercises the
// auth path.
const chaosSecret = "chaos-secret"

// node is one shard's full lifecycle: its journal directory on the
// fault-injecting filesystem, the currently running journaled platform,
// and — in networked mode — the RPC server in front of it plus the
// coordinator's fault-wrapped client to it.
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
	addr string
	ln   net.Listener
	srv  *http.Server
	tr   *faults.Transport
	cl   *rpc.Client
}

// open boots or recovers the node's platform from its journal directory.
func (n *node) open() error {
	jp, err := platform.OpenJournaled(n.dir, n.jopts, n.boot)
	if err != nil {
		return fmt.Errorf("shard %d: open: %w", n.idx, err)
	}
	n.Journaled = jp
	return nil
}

// crash kills the node the way a power cut would: the running platform is
// abandoned without Close (a real crash doesn't get to flush), the disk is
// torn back to its durable watermark plus a deterministic slice of the
// unsynced tail, and the platform is recovered from what survived. In
// networked mode the RPC server dies with the process and comes back on
// the same address.
func (n *node) crash(networked bool) error {
	if networked {
		n.stopServe()
	}
	n.Journaled = nil // abandon: unflushed, unacknowledged appends die with us
	if err := n.ffs.Crash(); err != nil {
		return fmt.Errorf("shard %d: tearing disk: %w", n.idx, err)
	}
	if err := n.open(); err != nil {
		return fmt.Errorf("shard %d: recovery: %w", n.idx, err)
	}
	if networked {
		return n.serve()
	}
	return nil
}

// serve starts (or restarts) the node's RPC server. The first call binds
// an ephemeral loopback port; restarts rebind the same address so the
// coordinator's client keeps working across crashes.
func (n *node) serve() error {
	addr := n.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("shard %d: listen %s: %w", n.idx, addr, err)
	}
	n.ln = ln
	n.addr = ln.Addr().String()
	n.srv = &http.Server{Handler: rpc.NewServer(n.Journaled, chaosSecret, nil)}
	go n.srv.Serve(ln)
	return nil
}

func (n *node) stopServe() {
	if n.srv != nil {
		n.srv.Close()
		n.srv = nil
	}
}

// awaitHealthy probes the node through its fault-wrapped client until the
// circuit breaker re-admits calls, so a freshly restarted shard is back in
// rotation before the next round (or the final verification) begins.
func (n *node) awaitHealthy(timeout time.Duration) error {
	if n.cl == nil {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := n.cl.Health(ctx)
		cancel()
		if err == nil && n.cl.Healthy() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shard %d: still unhealthy after %v: %v", n.idx, timeout, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
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
func (n *node) Healthy() bool { return !n.down.Load() && n.JournalFailed() == nil }

// Close shadows the platform's: the harness owns a node's lifecycle (crash,
// recover, final close), a cluster that holds it as a member does not.
func (n *node) Close() error { return nil }
