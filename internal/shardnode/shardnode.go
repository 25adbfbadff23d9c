// Package shardnode assembles a shard node: one opened platform behind the
// shard RPC server, with the membership gate armed when the node has an
// advertised address, the rearm handler and the -replicate boot. The node
// ships its journal to its followers itself and counts what it ships. It
// also holds the peer dialer and the peer wait a router shares.
// adplatformd's node mode, the chaos harness's nodes and the cluster
// tests' nodes are all built here, on TCP or on an rpc.MemNet; each caller
// opens its own platform.
package shardnode

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/rpc"
)

// Config is what a node is built from besides its member: the values of
// adplatformd's node flags.
type Config struct {
	// RPC is the node's side of the shard wire: Secret authenticates the
	// server and every client the node dials, Registry takes both sides'
	// metrics and the journal-shipping counters (and is served at /metrics
	// when set), and the client fields tune the node's own calls to its
	// followers.
	RPC rpc.Options
	// Advertise is the address the node appears as in ring pushes; set,
	// it arms the membership gate.
	Advertise string
	// Replicate lists the followers a journaled member ships to from boot
	// on, once they report healthy within PeerWait; followers replay the
	// owner's journal records, so a member without a journal refuses it.
	Replicate []string
	PeerWait  time.Duration
	Logger    *log.Logger // nil discards
}

// Backend is what a node serves: the shard wire's backend, whose journal
// the node ships to the followers it is armed onto. *platform.Platform is
// the one implementation; a test may wrap it.
type Backend interface {
	rpc.Backend
	SetShipper(fn func(lsn uint64, payload []byte) error) error
}

// Node is one assembled shard node: served on a listener of its own by
// Start, or through Handler by a caller's HTTP server.
type Node struct {
	mux *http.ServeMux
	cfg Config
	ln  net.Listener // the listener Start served on
	hs  *http.Server // nil once killed
}

// New builds a node over p. The gate starts permissive and enforces
// whatever ring a router pushes. The node ships (or stops shipping) its
// journal to the followers a rearm RPC names — how a router re-arms a
// promoted owner's chain, and disarms a demoted one, without a process
// restart — and with cfg.Replicate it is armed onto those followers, each
// of which is then reinstalled from p's state, before New returns. A
// platform without a journal refuses both.
func New(p Backend, cfg Config) (*Node, error) {
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	srv := rpc.NewServer(p, cfg.RPC.Secret, cfg.RPC.Registry)
	if cfg.Advertise != "" {
		self := peerURL(cfg.Advertise) // must match the address routers push
		srv.SetGate(cluster.NewGate(self))
		logger.Printf("membership gate armed; advertised as %s", self)
	}
	s := &shipper{owner: p, dialer: NewDialer(cfg.RPC), logger: logger,
		records: cfg.RPC.Registry.Counter("cluster_replica_ship_records_total",
			"Journal records shipped owner-to-follower across all replica chains."),
		failures: cfg.RPC.Registry.Counter("cluster_replica_ship_failures_total",
			"Journal records a follower failed to apply; the originating write is reported indeterminate."),
	}
	srv.SetRearm(func(followers []string) error {
		_, err := s.arm(followers)
		return err
	})
	if len(cfg.Replicate) > 0 {
		// Arm, wait for the followers, then reinstall each from the
		// owner's state.
		followers, err := s.arm(cfg.Replicate)
		if err == nil {
			err = WaitForPeers(followers, cfg.PeerWait, logger)
		}
		for i := 0; err == nil && i < len(followers); i++ {
			if err = cluster.Reinstall(p, followers[i]); err != nil {
				err = fmt.Errorf("resyncing follower %s: %w", followers[i].Addr(), err)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("arming replication: %w", err)
		}
	}
	mux := http.NewServeMux()
	mux.Handle(rpc.PathPrefix, srv)
	if cfg.RPC.Registry != nil {
		mux.Handle("GET /metrics", cfg.RPC.Registry.Handler())
	}
	return &Node{mux: mux, cfg: cfg}, nil
}

// Handler serves the shard RPC surface, and /metrics with a registry.
func (n *Node) Handler() http.Handler { return n.mux }

// Start builds a node over p (New) and serves it on ln until Kill. It
// closes ln if New fails.
func Start(p Backend, ln net.Listener, cfg Config) (*Node, error) {
	n, err := New(p, cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n.ln = ln
	n.hs = &http.Server{Handler: n.mux}
	go n.hs.Serve(ln)
	return n, nil
}

// Addr is the host:port Start bound.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Kill takes the node off the network the way a dead process goes: its
// listener and every open connection close at once. The member is left as
// it is.
func (n *Node) Kill() {
	if n.hs != nil {
		n.hs.Close()
		n.hs = nil
	}
}

// Restart is the process restarted with the same flags: it kills the node
// if it still serves, then serves a node over p, built from the same
// configuration, on the address Start bound. An in-memory name is free
// again at once; a TCP port was only just released, so its bind is retried
// for a second.
func (n *Node) Restart(p Backend) error {
	n.Kill()
	var ln net.Listener
	var err error
	if ml, ok := n.ln.(*rpc.MemListener); ok {
		ln, err = ml.Rebind()
	} else {
		for range 50 {
			if ln, err = net.Listen("tcp", n.Addr()); err == nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	if err != nil {
		return fmt.Errorf("shardnode: re-listening on %s: %w", n.Addr(), err)
	}
	fresh, err := Start(p, ln, n.cfg)
	if err != nil {
		return err
	}
	*n = *fresh // the replaced node's handlers hold their own values, not n
	return nil
}

// shipper is the owner side of a node's replica chain: it points the
// platform's journal shipping at follower nodes and counts what it ships.
type shipper struct {
	owner             Backend
	dialer            *Dialer
	logger            *log.Logger
	records, failures *obs.Counter
}

// arm points the owner's journal shipping at the given follower nodes,
// rebuilding the chain in place: every acknowledged write from here on is
// applied on each of them before the ack. An empty list is a chain with no
// follower, which arms no shipping at all. A platform without a journal
// refuses it. It returns the handles it ships to.
func (s *shipper) arm(addrs []string) ([]*cluster.RemoteShard, error) {
	followers := s.dialer.remotes(addrs)
	var ship func(uint64, []byte) error
	if len(followers) > 0 {
		ship = func(lsn uint64, payload []byte) error { return s.ship(followers, lsn, payload) }
	}
	if err := s.owner.SetShipper(ship); err != nil {
		return nil, err
	}
	if len(followers) == 0 {
		s.logger.Printf("journal shipping disarmed")
	} else {
		s.logger.Printf("journal shipping armed to %d follower(s): %v", len(followers), addrs)
	}
	return followers, nil
}

// ship pushes one journal record to every follower. Any failure is
// returned, which makes the originating write indeterminate for its
// caller; the failed follower stays behind until a heal reinstalls it.
func (s *shipper) ship(followers []*cluster.RemoteShard, lsn uint64, payload []byte) error {
	var firstErr error
	for i, f := range followers {
		if err := f.ApplyShipped(lsn, payload); err != nil {
			s.failures.Inc()
			if firstErr == nil {
				firstErr = fmt.Errorf("follower %d: %w", i+1, err)
			}
			continue
		}
		s.records.Inc()
	}
	return firstErr
}

// Dialer hands out RPC clients and shard handles for peer addresses,
// caching one client per base URL so membership refreshes and repeated
// admin operations never leak connection pools.
type Dialer struct {
	opts rpc.Options

	mu      sync.Mutex
	clients map[string]*rpc.Client
}

// NewDialer returns a dialer whose clients are built with opts.
func NewDialer(opts rpc.Options) *Dialer {
	return &Dialer{opts: opts, clients: make(map[string]*rpc.Client)}
}

// client returns the cached client for addr, dialing on first use.
func (d *Dialer) client(addr string) *rpc.Client {
	url := peerURL(addr)
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.clients[url]; ok {
		return c
	}
	c := rpc.NewClient(url, d.opts)
	d.clients[url] = c
	return c
}

// remotes returns one RemoteShard per address, over the cached clients.
func (d *Dialer) remotes(addrs []string) []*cluster.RemoteShard {
	out := make([]*cluster.RemoteShard, len(addrs))
	for i, a := range addrs {
		out[i] = cluster.NewRemoteShard(d.client(a))
	}
	return out
}

// Shard builds the routable handle for one slot: a chain over one
// RemoteShard per address. The router-side ReplicaSet routes writes to the
// owner and fails reads over; it never arms shipping — the journal chain
// runs on the owner node itself (its -replicate flag). The returned
// remotes are every member, owner first.
func (d *Dialer) Shard(owner string, replicas []string) (*cluster.ReplicaSet, []*cluster.RemoteShard) {
	remotes := d.remotes(append([]string{owner}, replicas...))
	followers := make([]cluster.Shard, len(replicas))
	for i, r := range remotes[1:] {
		followers[i] = r
	}
	return cluster.NewReplicaSet(remotes[0], followers...), remotes
}

// DialInfo is the cluster.RemoteMembershipSource Dial hook: it rebuilds a
// slot handle from an advertised ring entry, reusing cached clients.
func (d *Dialer) DialInfo(si rpc.ShardInfo) *cluster.ReplicaSet {
	s, _ := d.Shard(si.Addr, si.Replicas)
	return s
}

// WaitForPeers probes every shard node's health endpoint, in rounds 250 ms
// apart, until all report healthy or wait has passed; a wait of 0 is one
// round. Each probe is bounded by the client's own call timeout, not by
// what is left of wait. Logged per peer as it comes up, so an operator
// watching startup sees exactly which node is holding the fleet.
func WaitForPeers(remotes []*cluster.RemoteShard, wait time.Duration, logger *log.Logger) error {
	deadline := time.Now().Add(wait)
	up := make([]bool, len(remotes))
	var lastErr error
	for {
		ready := 0
		for i, r := range remotes {
			if up[i] {
				ready++
				continue
			}
			h, err := r.Client().Health(context.Background())
			if err != nil || !h.OK {
				if err != nil {
					lastErr = err
				}
				continue
			}
			up[i] = true
			ready++
			logger.Printf("shard node %s healthy: %d users, last LSN %d", r.Client().Peer(), h.Users, h.LastLSN)
		}
		if ready == len(remotes) {
			return nil
		}
		left := time.Until(deadline)
		if left <= 0 {
			return fmt.Errorf("waiting for shard nodes: %d/%d healthy after %v (last error: %v)",
				ready, len(remotes), wait, lastErr)
		}
		time.Sleep(min(left, 250*time.Millisecond))
	}
}

// peerURL turns a host:port into a base URL (scheme-qualified addresses
// pass through).
func peerURL(a string) string {
	if strings.Contains(a, "://") {
		return a
	}
	return "http://" + a
}
