package chaos

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/faults"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/shardnode"
)

// chaosSecret is the shard secret the harness's nodes share; its value is
// irrelevant, it only exercises the auth path.
const chaosSecret = "chaos-secret"

// node is one shard's full lifecycle: its journal directory on the
// fault-injecting filesystem, the running journaled platform, the shard
// node adplatformd would run over it, and the router's fault-wrapped
// handle on that node.
type node struct {
	idx   int
	dir   string
	ffs   *faults.FaultFS
	jopts journal.Options
	boot  func() (*platform.Platform, error)

	// Platform is the running platform. It is replaced on crash/restart,
	// which only ever happens between driver rounds (after every worker has
	// joined), so readers never race the swap.
	Platform *platform.Platform

	// down is the failure detector's verdict on a node the mid-round
	// owner-kill took off the network without losing its disk: the router's
	// handle reports it unavailable until the round-end sweep
	// crash-recovers the node and clears it.
	down atomic.Bool

	sn     *shardnode.Node
	tr     *faults.Transport
	remote *member
}

// member is the router's handle on a node: the RemoteShard over its
// fault-wrapped client, unhealthy while the node is down.
type member struct {
	*cluster.RemoteShard
	n *node
}

func (m *member) Healthy() bool { return !m.n.down.Load() && m.RemoteShard.Healthy() }

// open boots or recovers the node's platform from its journal directory. A
// reopen is the process starting again: its shard node comes back over the
// new platform on the same address, so the coordinator's client keeps
// working.
func (n *node) open() error {
	jp, err := platform.OpenJournaled(n.dir, n.jopts, n.boot)
	if err != nil {
		return fmt.Errorf("shard %d: open: %w", n.idx, err)
	}
	n.Platform = jp
	if n.sn != nil {
		return n.sn.Restart(jp)
	}
	return nil
}

// crash kills the node the way a power cut would: the shard node dies with
// the process, the running platform is abandoned without Close (a real
// crash doesn't get to flush), the disk is torn back to its durable
// watermark plus a deterministic slice of the unsynced tail, and the
// platform is recovered from what survived.
func (n *node) crash() error {
	n.sn.Kill()
	n.Platform = nil // abandon: unflushed, unacknowledged appends die with us
	if err := n.ffs.Crash(); err != nil {
		return fmt.Errorf("shard %d: tearing disk: %w", n.idx, err)
	}
	if err := n.open(); err != nil {
		return fmt.Errorf("shard %d: recovery: %w", n.idx, err)
	}
	return nil
}

// kill takes the node's process off the network mid-round and marks it
// down; the round-end sweep crash-recovers it.
func (n *node) kill() {
	n.down.Store(true)
	n.sn.Kill()
}

// serve starts the node's shard node on mn and the router's handle on it,
// whose link faults follow cfg; the node's own calls, to its followers, go
// unfaulted. A breaker the faults open stays open until the round-end probe
// (awaitHealthy), so what a partition refuses does not depend on timing.
func (n *node) serve(mn *rpc.MemNet, inj *faults.Injector, cfg faults.NetConfig) error {
	ln, err := mn.Listen("")
	if err != nil {
		return fmt.Errorf("shard %d: listen: %w", n.idx, err)
	}
	n.sn, err = shardnode.Start(n.Platform, ln, shardnode.Config{
		RPC: rpc.Options{Secret: chaosSecret, Transport: mn.Transport()},
	})
	if err != nil {
		return err
	}
	n.tr = faults.NewTransport(inj, cfg, fmt.Sprintf("node%d", n.idx), mn.Transport())
	n.remote = &member{n: n, RemoteShard: cluster.NewRemoteShard(rpc.NewClient("http://"+n.sn.Addr(), rpc.Options{
		Secret:           chaosSecret,
		Transport:        n.tr,
		CallTimeout:      2 * time.Second,
		MaxRetries:       2,
		BackoffBase:      2 * time.Millisecond,
		BackoffMax:       20 * time.Millisecond,
		FailureThreshold: 5,
		CircuitCooldown:  time.Hour,
	}))}
	return nil
}
