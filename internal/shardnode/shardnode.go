// Package shardnode assembles a shard node: one opened member behind the
// shard RPC server, with the membership gate armed when the node has an
// advertised address and, for a journaled member, the rearm handler and
// the -replicate boot. It also holds the peer dialer and the peer wait a
// router shares. adplatformd's node mode, the chaos harness's networked
// nodes and the cluster tests' nodes are all built here; each caller opens
// its own member.
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
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/rpc"
)

// Config is what a node is built from besides its member: the values of
// adplatformd's node flags.
type Config struct {
	// RPC is the node's side of the shard wire: Secret authenticates the
	// server and every client the node dials, Registry takes both sides'
	// metrics (and is served at /metrics when set), and the client fields
	// tune the node's own calls to its followers.
	RPC rpc.Options
	// Advertise is the address the node appears as in ring pushes; set,
	// it arms the membership gate.
	Advertise string
	// Replicate lists the followers a journaled member ships to from boot
	// on, once they report healthy within PeerWait; followers replay the
	// owner's journal records, so any other member ignores it.
	Replicate []string
	PeerWait  time.Duration
	Logger    *log.Logger // nil discards
}

// Node is one assembled shard node: served on a listener of its own by
// Start, or through Handler by a caller's HTTP server.
type Node struct {
	mux  *http.ServeMux
	cfg  Config
	addr string       // the host:port Start served on
	hs   *http.Server // nil once killed
}

// New builds a node over m. The gate starts permissive and enforces
// whatever ring a router pushes. A journaled member ships (or stops
// shipping) its journal to the followers a rearm RPC names — how a router
// re-arms a promoted owner's chain, and disarms a demoted one, without a
// process restart — and with cfg.Replicate it is armed onto those
// followers, which are then healed, before New returns.
func New(m rpc.Backend, cfg Config) (*Node, error) {
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	srv := rpc.NewServer(m, cfg.RPC.Secret, cfg.RPC.Registry)
	if cfg.Advertise != "" {
		self := peerURL(cfg.Advertise) // must match the address routers push
		srv.SetGate(cluster.NewGate(self))
		logger.Printf("membership gate armed; advertised as %s", self)
	}
	if jp, ok := m.(*platform.Journaled); ok {
		dialer := NewDialer(cfg.RPC)
		srv.SetRearm(func(followers []string) error {
			_, _, err := arm(jp, dialer, followers, logger)
			return err
		})
		if len(cfg.Replicate) > 0 {
			// Arm, wait for the followers, then Heal, which reinstalls each
			// from the owner's state and arms the chain again.
			rs, remotes, err := arm(jp, dialer, cfg.Replicate, logger)
			if err == nil {
				err = WaitForPeers(remotes, cfg.PeerWait, logger)
			}
			if err == nil {
				err = rs.Heal()
			}
			if err != nil {
				return nil, fmt.Errorf("arming replication: %w", err)
			}
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

// Start builds a node over m (New) and serves it on ln until Kill. It
// closes ln if New fails.
func Start(m rpc.Backend, ln net.Listener, cfg Config) (*Node, error) {
	n, err := New(m, cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n.addr = ln.Addr().String()
	n.hs = &http.Server{Handler: n.mux}
	go n.hs.Serve(ln)
	return n, nil
}

// Addr is the host:port Start bound.
func (n *Node) Addr() string { return n.addr }

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
// if it still serves, then serves a node over m, built from the same
// configuration, on the address Start bound. The port was only just
// released, so the bind is retried for a second.
func (n *Node) Restart(m rpc.Backend) error {
	n.Kill()
	var ln net.Listener
	var err error
	for range 50 {
		if ln, err = net.Listen("tcp", n.addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("shardnode: re-listening on %s: %w", n.addr, err)
	}
	fresh, err := Start(m, ln, n.cfg)
	if err != nil {
		return err
	}
	*n = *fresh // the replaced node's handlers hold their own values, not n
	return nil
}

// arm points owner's journal shipping at the given follower nodes,
// rebuilding the chain in place: every acknowledged write from here on is
// applied on each of them before the ack. An empty list is a chain with no
// follower, which arms no shipping at all.
func arm(owner *platform.Journaled, d *Dialer, followers []string, logger *log.Logger) (*cluster.ReplicaSet, []*cluster.RemoteShard, error) {
	rs, remotes := d.chain(owner, followers)
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

// chain builds a slot handle: owner followed by one RemoteShard per
// follower address. The returned remotes are the followers, for health
// gating.
func (d *Dialer) chain(owner cluster.Shard, followers []string) (*cluster.ReplicaSet, []*cluster.RemoteShard) {
	remotes := make([]*cluster.RemoteShard, len(followers))
	shards := make([]cluster.Shard, len(followers))
	for i, a := range followers {
		remotes[i] = cluster.NewRemoteShard(d.client(a))
		shards[i] = remotes[i]
	}
	return cluster.NewReplicaSet(owner, shards...), remotes
}

// Shard builds the routable handle for one slot: a chain over one
// RemoteShard per address. The router-side ReplicaSet routes writes to the
// owner and fails reads over; it never arms shipping — the journal chain
// runs on the owner node itself (its -replicate flag). The returned
// remotes are every member, owner first.
func (d *Dialer) Shard(owner string, replicas []string) (*cluster.ReplicaSet, []*cluster.RemoteShard) {
	o := cluster.NewRemoteShard(d.client(owner))
	rs, followers := d.chain(o, replicas)
	return rs, append([]*cluster.RemoteShard{o}, followers...)
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
