package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/faults"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/shardnode"
	"github.com/treads-project/treads/internal/stats"
	"github.com/treads-project/treads/internal/workload"
)

const elasticSecret = "elastic-secret"

// serveNode runs m as a shard node the way the daemon assembles one with
// -advertise (shardnode: RPC server, membership gate, rearm handler for a
// journaled member), on a loopback port, and returns it with its base URL.
func serveNode(t testing.TB, m rpc.Backend, secret string) (*shardnode.Node, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	sn, err := shardnode.Start(m, ln, shardnode.Config{RPC: rpc.Options{Secret: secret}, Advertise: url})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sn.Kill)
	return sn, url
}

// elasticNode is one journaled shard node and a dialed client — the full
// loopback wire path.
type elasticNode struct {
	jp     *platform.Journaled
	sn     *shardnode.Node
	addr   string
	client *rpc.Client
}

func newElasticNode(t *testing.T, dir string, seed uint64) *elasticNode {
	t.Helper()
	jp := openElasticShard(t, dir, seed)
	sn, addr := serveNode(t, jp, elasticSecret)
	client := rpc.NewClient(addr, rpc.Options{Secret: elasticSecret})
	t.Cleanup(client.Close)
	return &elasticNode{jp: jp, sn: sn, addr: addr, client: client}
}

// TestRemoteReshardAndStaleRouterRefresh is the wire-path membership test:
// two routers share three gated shard nodes; router A grows the cluster
// live while router B still holds the old ring. B's next write for a moved
// user is refused by the node's membership gate with the typed stale-ring
// error, B refreshes from the nodes themselves, re-routes, and succeeds.
func TestRemoteReshardAndStaleRouterRefresh(t *testing.T) {
	root := t.TempDir()
	nodes := make([]*elasticNode, 3)
	for i := range nodes {
		nodes[i] = newElasticNode(t, filepath.Join(root, fmt.Sprintf("node-%d", i)), stats.SubSeed(91, uint64(i)))
	}

	// Router A drives nodes 0 and 1.
	shardsA := make([]cluster.Shard, 2)
	for i := 0; i < 2; i++ {
		shardsA[i] = cluster.NewRemoteShard(rpc.NewClient(nodes[i].addr, rpc.Options{Secret: elasticSecret}))
	}
	routerA, err := cluster.New(shardsA, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Every node's membership gate holds the version-1 ring — including
	// the future joiner, which serves nothing under it.
	ri := routerA.RingInfo()
	for _, n := range nodes {
		if _, err := rpc.Do(context.Background(), n.client, rpc.OpSetRing, ri); err != nil {
			t.Fatal(err)
		}
	}

	users, _ := populateElastic(t, routerA, 32)

	// Router B: an independent coordinator over the same two nodes, still
	// on ring version 1, with the nodes as its membership seeds.
	dialed := map[string]cluster.Shard{}
	shardsB := make([]cluster.Shard, 2)
	for i := 0; i < 2; i++ {
		rs := cluster.NewRemoteShard(rpc.NewClient(nodes[i].addr, rpc.Options{Secret: elasticSecret}))
		shardsB[i] = rs
		dialed[nodes[i].addr] = rs
	}
	routerB, err := cluster.New(shardsB, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	routerB.SetMembershipSource(&cluster.RemoteMembershipSource{
		Seeds: []*rpc.Client{nodes[0].client, nodes[1].client},
		Dial: func(si rpc.ShardInfo) *cluster.ReplicaSet {
			s, ok := dialed[si.Addr]
			if !ok {
				s = cluster.NewRemoteShard(rpc.NewClient(si.Addr, rpc.Options{Secret: elasticSecret}))
				dialed[si.Addr] = s
			}
			return cluster.NewReplicaSet(s)
		},
	})

	// Router A reshard: node 2 joins live.
	joiner := cluster.NewRemoteShard(rpc.NewClient(nodes[2].addr, rpc.Options{Secret: elasticSecret}))
	rep, err := routerA.AddSet(cluster.NewReplicaSet(joiner))
	if err != nil {
		t.Fatalf("AddSet over the wire: %v", err)
	}
	if rep.UsersMoved == 0 {
		t.Fatal("wire reshard moved no users")
	}
	// The ring push reached the nodes: they serve version 2 now.
	for i, n := range nodes {
		got, err := rpc.Do(context.Background(), n.client, rpc.OpRing, struct{}{})
		if err != nil {
			t.Fatalf("FetchRing(node %d): %v", i, err)
		}
		if got.Version != 2 || len(got.Shards) != 3 {
			t.Fatalf("node %d serves ring v%d with %d shards, want v2 with 3", i, got.Version, len(got.Shards))
		}
	}

	// A user that moved to the new node, as router A sees it.
	var moved profile.UserID
	for _, u := range users {
		if routerA.Owner(u) == 2 {
			moved = u
			break
		}
	}
	if moved == "" {
		t.Fatal("no user moved to the joiner")
	}

	// Router B still holds ring v1 and routes the moved user to its old
	// owner; the gate refuses, B refreshes, re-routes, and the write lands.
	if routerB.Version() != 1 {
		t.Fatalf("router B at version %d before refresh", routerB.Version())
	}
	if _, err := routerB.BrowseFeed(moved, 2); err != nil {
		t.Fatalf("stale router BrowseFeed(%s): %v", moved, err)
	}
	if routerB.Version() != 2 || routerB.Shards() != 3 {
		t.Fatalf("router B at version %d with %d shards after refresh, want v2 with 3", routerB.Version(), routerB.Shards())
	}
	if _, ok := dialed[nodes[2].addr]; !ok {
		t.Fatal("refresh did not dial the new node")
	}
	// Both routers agree on the moved user's feed.
	if la, lb := len(routerA.Feed(moved)), len(routerB.Feed(moved)); la != lb {
		t.Fatalf("routers disagree on feed length: A=%d B=%d", la, lb)
	}
}

// TestShrinkPushesTheRingToTheRemovedNode: router A shrinks 2→1 while router
// B still holds ring v1. The removed node must hold the ring that removed
// it, so its gate refuses B's read of a user that moved off it as stale
// (not 404 unknown user); B refreshes and reads the user on its new owner.
// Re-adding the same node afterwards bootstraps it and it serves again.
func TestShrinkPushesTheRingToTheRemovedNode(t *testing.T) {
	root := t.TempDir()
	nodes := make([]*elasticNode, 2)
	dialed := map[string]cluster.Shard{}
	remote := func(addr string) cluster.Shard {
		cl := rpc.NewClient(addr, rpc.Options{Secret: elasticSecret})
		t.Cleanup(cl.Close)
		return cluster.NewRemoteShard(cl)
	}
	router := func() *cluster.Cluster {
		c, err := cluster.New([]cluster.Shard{remote(nodes[0].addr), remote(nodes[1].addr)}, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for i := range nodes {
		nodes[i] = newElasticNode(t, filepath.Join(root, fmt.Sprintf("node-%d", i)), stats.SubSeed(95, uint64(i)))
	}
	routerA, routerB := router(), router()
	ri := routerA.RingInfo()
	for _, n := range nodes {
		if _, err := rpc.Do(context.Background(), n.client, rpc.OpSetRing, ri); err != nil {
			t.Fatal(err)
		}
	}
	routerB.SetMembershipSource(&cluster.RemoteMembershipSource{
		Seeds: []*rpc.Client{nodes[0].client, nodes[1].client},
		Dial: func(si rpc.ShardInfo) *cluster.ReplicaSet {
			s, ok := dialed[si.Addr]
			if !ok {
				s = remote(si.Addr)
				dialed[si.Addr] = s
			}
			return cluster.NewReplicaSet(s)
		},
	})
	users, _ := populateElastic(t, routerA, 32)
	var moved profile.UserID
	for _, u := range users {
		if routerB.Owner(u) == 1 {
			moved = u
			break
		}
	}
	if moved == "" {
		t.Fatal("no user on the slot to be removed")
	}
	want, err := routerA.AdPreferences(moved)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := routerA.RemoveShard(); err != nil {
		t.Fatalf("RemoveShard over the wire: %v", err)
	}
	if got, err := rpc.Do(context.Background(), nodes[1].client, rpc.OpRing, struct{}{}); err != nil || got.Version != 2 || len(got.Shards) != 1 {
		t.Fatalf("removed node serves ring %+v (%v), want v2 with 1 slot", got, err)
	}
	if _, err := nodes[1].client.AdPreferences(context.Background(), moved); !errors.Is(err, rpc.ErrStaleRing) {
		t.Fatalf("removed node asked for moved user %s: %v, want ErrStaleRing", moved, err)
	}

	// Router B routes the user to the removed node, is refused, refreshes.
	if routerB.Version() != 1 {
		t.Fatalf("router B at version %d before the refusal", routerB.Version())
	}
	got, err := routerB.AdPreferences(moved)
	if err != nil {
		t.Fatalf("stale router AdPreferences(%s): %v", moved, err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stale router read %v for %s, want %v", got, moved, want)
	}
	if routerB.Version() != 2 || routerB.Shards() != 1 {
		t.Fatalf("router B at version %d with %d shards after refresh, want v2 with 1", routerB.Version(), routerB.Shards())
	}

	// The same address joins again: bootstrapped over its stale state, it
	// takes users and serves them.
	rep, err := routerA.AddSet(cluster.NewReplicaSet(remote(nodes[1].addr)))
	if err != nil {
		t.Fatalf("re-adding the removed node: %v", err)
	}
	if rep.UsersMoved == 0 || rep.Version != 3 {
		t.Fatalf("re-add moved %d users at v%d, want some at v3", rep.UsersMoved, rep.Version)
	}
	for _, u := range users {
		if routerA.Owner(u) != 1 {
			continue
		}
		if nodes[1].jp.User(u) == nil {
			t.Fatalf("re-added node does not hold %s", u)
		}
		if _, err := nodes[1].client.AdPreferences(context.Background(), u); err != nil {
			t.Fatalf("re-added node AdPreferences(%s): %v", u, err)
		}
	}
}

// oneOpTransport sends one rpc op through faulty and the rest through clean.
type oneOpTransport struct {
	op            string
	faulty, clean http.RoundTripper
}

func (o oneOpTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if path.Base(req.URL.Path) == o.op {
		return o.faulty.RoundTrip(req)
	}
	return o.clean.RoundTrip(req)
}

// TestReshardFailsWhenASlotCannotBeListed: the bulk copy plans its moves
// from each slot's user list, so a list that could not be fetched must stop
// the reshard — read as "no users", nothing would be copied, the ring would
// flip, and every user the new ring hands the joiner would be unknown there.
func TestReshardFailsWhenASlotCannotBeListed(t *testing.T) {
	root := t.TempDir()
	nodes := make([]*elasticNode, 3)
	for i := range nodes {
		nodes[i] = newElasticNode(t, filepath.Join(root, fmt.Sprintf("node-%d", i)), stats.SubSeed(93, uint64(i)))
	}
	inj := faults.NewInjector(1, nil)
	inj.Arm(true)
	lossy := oneOpTransport{op: "users", clean: http.DefaultTransport,
		faulty: faults.NewTransport(inj, faults.NetConfig{DialError: 1}, "node0", nil)}
	router, err := cluster.New([]cluster.Shard{
		cluster.NewRemoteShard(rpc.NewClient(nodes[0].addr, rpc.Options{Secret: elasticSecret, Transport: lossy,
			MaxRetries: 1, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond})),
		cluster.NewRemoteShard(rpc.NewClient(nodes[1].addr, rpc.Options{Secret: elasticSecret})),
	}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	users, _ := populateElastic(t, router, 32)
	before := feedLens(router, users)

	joiner := cluster.NewRemoteShard(rpc.NewClient(nodes[2].addr, rpc.Options{Secret: elasticSecret}))
	_, err = router.AddSet(cluster.NewReplicaSet(joiner))
	if err == nil || !errors.Is(err, rpc.ErrUnavailable) || !strings.Contains(err.Error(), "listing: shard 0") {
		t.Fatalf("AddSet with shard 0's users op failing: %v, want the listing stage's transport error", err)
	}
	if inj.Counts()[faults.NetDialError] == 0 {
		t.Fatal("the users op was never failed")
	}
	if router.Version() != 1 || router.Shards() != 2 {
		t.Fatalf("ring at v%d with %d shards after a failed reshard, want v1 with 2", router.Version(), router.Shards())
	}
	if got := nodes[2].jp.Users(); len(got) != 0 {
		t.Fatalf("joiner holds %d users after a reshard that failed while listing", len(got))
	}
	for _, u := range users {
		if _, err := router.AdPreferences(u); err != nil {
			t.Fatalf("AdPreferences(%s) after the failed reshard: %v", u, err)
		}
	}
	if got := feedLens(router, users); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Fatal("feeds changed across a failed reshard")
	}
}

// TestRemoteFollowerChainOverLoopback runs a replica chain across loopback
// TCP: an owner node ships its journal to a follower node, Heal bootstraps
// the follower, failover reads and promotion work against the remote
// member.
func TestRemoteFollowerChainOverLoopback(t *testing.T) {
	root := t.TempDir()
	onode := newElasticNode(t, filepath.Join(root, "owner"), 97)
	owner := &frailShard{RemoteShard: cluster.NewRemoteShard(onode.client), Journaled: onode.jp}
	fnode := newElasticNode(t, filepath.Join(root, "follower"), 97)
	remote := cluster.NewRemoteShard(rpc.NewClient(fnode.addr, rpc.Options{Secret: elasticSecret}))

	rs := cluster.NewReplicaSet(owner, remote)
	if err := rs.Chain(); err != nil {
		t.Fatal(err)
	}
	// The remote follower is not following yet; Heal reinstalls the
	// owner's state over the wire and starts the follow from its LSN.
	if err := rs.Heal(); err != nil {
		t.Fatalf("Heal (remote bootstrap): %v", err)
	}

	c, err := cluster.NewFromSets([]*cluster.ReplicaSet{rs}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	users, _ := populateElastic(t, c, 12)

	// Every acknowledged write crossed the wire.
	if !followStatus(fnode.jp).Synced || followStatus(fnode.jp).ShipLSN != owner.LastLSN() {
		t.Fatalf("remote follower at %d (synced=%v), owner at %d", followStatus(fnode.jp).ShipLSN, followStatus(fnode.jp).Synced, owner.LastLSN())
	}
	if stateJSON(t, owner.Journaled) != stateJSON(t, fnode.jp) {
		t.Fatal("remote follower state diverged from owner")
	}
	h, err := fnode.client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !h.Following || !h.Synced || h.ShipLSN != owner.LastLSN() {
		t.Fatalf("health reports following=%v synced=%v shipLSN=%d, owner at %d", h.Following, h.Synced, h.ShipLSN, owner.LastLSN())
	}

	// Owner dies: reads fail over to the remote follower, writes refuse.
	owner.down.Store(true)
	if c.User(users[0]) == nil {
		t.Fatal("failover read over the wire lost the user")
	}
	if _, err := c.BrowseFeed(users[0], 2); !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("write with owner down: %v, want ErrShardUnavailable", err)
	}

	// Promote the remote member and write through it.
	if _, err := rs.Promote(false); err != nil {
		t.Fatalf("Promote(remote): %v", err)
	}
	if followStatus(fnode.jp).Following {
		t.Fatal("remote member still in follower mode after promotion")
	}
	acked := len(c.Feed(users[0]))
	imps, err := c.BrowseFeed(users[0], 3)
	if err != nil {
		t.Fatalf("BrowseFeed through promoted remote owner: %v", err)
	}
	if got := len(c.Feed(users[0])); got != acked+len(imps) {
		t.Fatalf("feed has %d impressions after promotion write, want %d", got, acked+len(imps))
	}
}

// TestRemoteAddShardAboveMaxBody joins a networked slot to a cluster whose
// shard 0 holds more state than one RPC body carries (the benchmark's own
// shard size: 6 000 generated users). The bootstrap must transfer the
// advertiser skeleton only — cut on the node, not fetched whole and
// stripped at the router — so the join does not depend on the shard's
// population: users move, every moved user is served by the joiner, and a
// joiner with a follower has it synced and byte-identical.
func TestRemoteAddShardAboveMaxBody(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 6 000-user shard")
	}
	remote := func(n *elasticNode) *cluster.RemoteShard {
		cl := rpc.NewClient(n.addr, rpc.Options{Secret: elasticSecret})
		t.Cleanup(cl.Close)
		return cluster.NewRemoteShard(cl)
	}
	for _, followers := range []int{0, 1} {
		t.Run(fmt.Sprintf("followers=%d", followers), func(t *testing.T) {
			root := t.TempDir()
			n0 := newElasticNode(t, filepath.Join(root, "n0"), 211)
			cfg := workload.DefaultConfig()
			cfg.Users = 6000
			workload.Each(cfg, func(u *profile.Profile) {
				if err := n0.jp.AddUser(u); err != nil {
					t.Fatal(err)
				}
			})
			size := len(stateJSON(t, n0.jp))
			if size <= rpc.MaxBody {
				t.Fatalf("shard 0 holds %d bytes of state, want more than rpc.MaxBody (%d)", size, rpc.MaxBody)
			}
			c, err := cluster.New([]cluster.Shard{remote(n0)}, cluster.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.RegisterAdvertiser("mover"); err != nil {
				t.Fatal(err)
			}
			if _, err := c.CreateCampaign("mover", platform.CampaignParams{
				BidCapCPM: money.FromDollars(3),
				Creative:  ad.Creative{Headline: "move me", Body: "b"},
			}); err != nil {
				t.Fatal(err)
			}

			owner := newElasticNode(t, filepath.Join(root, "owner"), 223)
			joiner := cluster.NewReplicaSet(remote(owner))
			var follower *elasticNode
			if followers == 1 {
				// Owner-process shipping, daemon-style (-replicate).
				follower = newElasticNode(t, filepath.Join(root, "follower"), 223)
				if err := remote(owner).Rearm(context.Background(), []string{follower.addr}); err != nil {
					t.Fatal(err)
				}
				joiner = cluster.NewReplicaSet(remote(owner), remote(follower))
			}
			rep, err := c.AddSet(joiner)
			if err != nil {
				t.Fatalf("AddSet with %d bytes on shard 0: %v", size, err)
			}

			moved := 0
			for _, u := range c.Users() {
				if c.Owner(u) != 1 {
					continue
				}
				moved++
				if owner.jp.User(u) == nil || n0.jp.User(u) != nil {
					t.Fatalf("moved user %s: on joiner=%v, still on shard 0=%v", u, owner.jp.User(u) != nil, n0.jp.User(u) != nil)
				}
				if _, err := c.AdPreferences(u); err != nil {
					t.Fatalf("AdPreferences(%s) on the joined slot: %v", u, err)
				}
				if moved%16 != 0 {
					continue
				}
				if _, err := c.BrowseFeed(u, 2); err != nil {
					t.Fatalf("BrowseFeed(%s) on the joined slot: %v", u, err)
				}
			}
			if moved == 0 || rep.UsersMoved != moved || len(owner.jp.Users()) != moved {
				t.Fatalf("report says %d users moved, ring re-owned %d, joiner holds %d", rep.UsersMoved, moved, len(owner.jp.Users()))
			}
			if follower != nil {
				if st := followStatus(follower.jp); !st.Synced || st.ShipLSN != owner.jp.LastLSN() {
					t.Fatalf("joiner's follower at %d (synced=%v), owner at %d", st.ShipLSN, st.Synced, owner.jp.LastLSN())
				}
				if stateJSON(t, owner.jp) != stateJSON(t, follower.jp) {
					t.Fatal("joiner's follower state diverged from its owner")
				}
			}
		})
	}
}
