package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/shardnode"
	"github.com/treads-project/treads/internal/stats"
)

const membershipSecret = "membership-secret"

// followStatus reads an in-process member's follow status (it cannot
// fail).
func followStatus(jp *platform.Journaled) platform.FollowStatus {
	st, _ := jp.FollowStatus()
	return st
}

func TestParsePeerGroups(t *testing.T) {
	cases := []struct {
		in   string
		want [][]string
	}{
		{"a:1,b:1", [][]string{{"a:1"}, {"b:1"}}},
		{"a:1/a2:1/a3:1,b:1", [][]string{{"a:1", "a2:1", "a3:1"}, {"b:1"}}},
		{" a:1 / a2:1 , , b:1 ,", [][]string{{"a:1", "a2:1"}, {"b:1"}}},
		{"http://a:1/http://a2:1,http://b:1", [][]string{{"http://a:1", "http://a2:1"}, {"http://b:1"}}},
		{"", nil},
	}
	for _, tc := range cases {
		if got := parsePeerGroups(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parsePeerGroups(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// membershipNode is one shard node as the daemon runs it with -advertise
// (and -replicate, when given followers): a journaled platform behind the
// node shardnode assembles, served on loopback.
type membershipNode struct {
	jp   *platform.Journaled
	addr string
	cli  *rpc.Client
	// probes counts health requests the node served — what a failover
	// supervisor's probe loop shows up as on the wire; control counts
	// everything else (ring pushes, rearms, resyncs, traffic).
	probes, control atomic.Int64
	// down makes the node drop every connection unanswered, as a dead
	// process would.
	down atomic.Bool
}

func newMembershipNode(t *testing.T, dir string, seed uint64, replicate ...string) *membershipNode {
	t.Helper()
	jp, err := platform.OpenJournaled(dir, journal.Options{NoSync: true}, func() (*platform.Platform, error) {
		return platform.New(platform.Config{Seed: seed}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jp.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &membershipNode{jp: jp, addr: "http://" + ln.Addr().String()}
	sn, err := shardnode.New(jp, shardnode.Config{RPC: rpc.Options{Secret: membershipSecret},
		Advertise: n.addr, Replicate: replicate, PeerWait: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hs := &httptest.Server{Listener: ln, Config: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.down.Load() {
			panic(http.ErrAbortHandler)
		}
		if r.URL.Path == rpc.PathPrefix+"health" {
			n.probes.Add(1)
		} else {
			n.control.Add(1)
		}
		sn.Handler().ServeHTTP(w, r)
	})}}
	hs.Start()
	t.Cleanup(hs.Close)
	n.cli = rpc.NewClient(n.addr, rpc.Options{Secret: membershipSecret})
	t.Cleanup(n.cli.Close)
	return n
}

func adminJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestFailoverSupervisorFollowsMembership pins that with -failover-detect
// armed the supervisor follows the ring, not the boot-time ring, however the
// ring changes: a slot that joins is probed from then on and a removed one
// is no longer probed a tick later — both when the supervising router
// reshards through its own admin surface and when another router reshards
// and this one learns of it only through a stale-ring refresh.
func TestFailoverSupervisorFollowsMembership(t *testing.T) {
	root := t.TempDir()
	logger := log.New(io.Discard, "", 0)
	grew := func(n *membershipNode, by int64) func() bool {
		from := n.probes.Load()
		return func() bool { return n.probes.Load() >= from+by }
	}
	// probedAfterShrink fails if removed is probed once kept has been
	// probed often enough for the supervisor to have ticked twice.
	probedAfterShrink := func(kept, removed *membershipNode) {
		t.Helper()
		waitUntil(t, "the supervisor to tick after the shrink", grew(kept, 3))
		after := removed.probes.Load()
		waitUntil(t, "the remaining slot to keep being probed", grew(kept, 20))
		if n := removed.probes.Load(); n != after {
			t.Fatalf("removed slot probed %d more times a tick after it left the ring", n-after)
		}
	}

	t.Run("admin", func(t *testing.T) {
		nodeA := newMembershipNode(t, filepath.Join(root, "a"), stats.SubSeed(43, 0))
		nodeB := newMembershipNode(t, filepath.Join(root, "b"), stats.SubSeed(43, 1))
		opts := parseForTest(t, "-peers", nodeA.addr, "-rpc-secret", membershipSecret,
			"-peer-wait", "10s", "-failover-detect", "2ms")
		n, err := boot(opts, logger)
		if err != nil {
			t.Fatal(err)
		}
		backend, admin := n.backend, n.admin
		t.Cleanup(func() { backend.(*cluster.Cluster).Close() })
		sup := startFailoverSupervisor(admin, opts, logger)
		t.Cleanup(sup.Close)
		waitUntil(t, "boot slot to be probed", grew(nodeA, 5))

		if _, err := admin.AddShard(nodeB.addr, nil); err != nil {
			t.Fatalf("AddShard: %v", err)
		}
		waitUntil(t, "the slot added at runtime to be probed", grew(nodeB, 5))

		if _, err := admin.RemoveShard(); err != nil {
			t.Fatalf("RemoveShard: %v", err)
		}
		probedAfterShrink(nodeA, nodeB)
	})

	t.Run("refresh", func(t *testing.T) {
		nodeA := newMembershipNode(t, filepath.Join(root, "c"), stats.SubSeed(43, 2))
		nodeB := newMembershipNode(t, filepath.Join(root, "d"), stats.SubSeed(43, 3))
		plain := parseForTest(t, "-peers", nodeA.addr, "-rpc-secret", membershipSecret, "-peer-wait", "10s")
		nA, err := boot(plain, logger)
		if err != nil {
			t.Fatal(err)
		}
		backendA, adminA := nA.backend, nA.admin
		t.Cleanup(func() { backendA.(*cluster.Cluster).Close() })
		// Router B supervises; router A, which reshards, does not, so every
		// probe a node serves is B's.
		optsB := parseForTest(t, "-peers", nodeA.addr, "-rpc-secret", membershipSecret,
			"-peer-wait", "10s", "-failover-detect", "2ms")
		nB, err := boot(optsB, logger)
		if err != nil {
			t.Fatal(err)
		}
		backendB, adminB := nB.backend, nB.admin
		cluB := backendB.(*cluster.Cluster)
		t.Cleanup(func() { cluB.Close() })
		sup := startFailoverSupervisor(adminB, optsB, logger)
		t.Cleanup(sup.Close)
		waitUntil(t, "boot slot to be probed", grew(nodeA, 5))

		if _, err := adminA.AddShard(nodeB.addr, nil); err != nil {
			t.Fatalf("AddShard through router A: %v", err)
		}
		if err := cluB.RefreshMembership(); err != nil || cluB.Shards() != 2 {
			t.Fatalf("router B after refresh: %d slots, err %v; want 2", cluB.Shards(), err)
		}
		waitUntil(t, "the slot router B learnt of by refresh to be probed", grew(nodeB, 5))

		if _, err := adminA.RemoveShard(); err != nil {
			t.Fatalf("RemoveShard through router A: %v", err)
		}
		if err := cluB.RefreshMembership(); err != nil || cluB.Shards() != 1 {
			t.Fatalf("router B after refresh: %d slots, err %v; want 1", cluB.Shards(), err)
		}
		probedAfterShrink(nodeA, nodeB)
	})
}

// TestRouterRestartAdoptsFleetRing: a router restarted with its original
// -peers after the fleet grew must serve the fleet's ring, not the one its
// flags describe. On the -peers ring it would send a replicated mutation to
// the boot slots only, and the next mutation through any current router
// would find the owners' ID counters apart — advertiser state forked for
// good.
func TestRouterRestartAdoptsFleetRing(t *testing.T) {
	root := t.TempDir()
	logger := log.New(io.Discard, "", 0)
	nodeA := newMembershipNode(t, filepath.Join(root, "a"), stats.SubSeed(59, 0))
	nodeB := newMembershipNode(t, filepath.Join(root, "b"), stats.SubSeed(59, 1))
	opts := parseForTest(t, "-peers", nodeA.addr, "-rpc-secret", membershipSecret, "-peer-wait", "10s")
	open := func() *cluster.Cluster {
		t.Helper()
		n, err := boot(opts, logger)
		if err != nil {
			t.Fatal(err)
		}
		c := n.backend.(*cluster.Cluster)
		t.Cleanup(func() { c.Close() })
		return c
	}

	routerA := open()
	for i := 0; i < 16; i++ {
		if err := routerA.AddUser(profile.New(profile.UserID(fmt.Sprintf("user-%03d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := routerA.RegisterAdvertiser("acme"); err != nil {
		t.Fatal(err)
	}
	admin := &membershipAdmin{clu: routerA, dial: shardnode.NewDialer(rpcOptions(opts)), wait: opts.PeerWait, logger: logger}
	if _, err := admin.AddShard(nodeB.addr, nil); err != nil {
		t.Fatalf("AddShard: %v", err)
	}

	routerB := open() // the restart: same flags, the fleet is at v2
	version, slots := routerB.Version(), routerB.Shards()
	params := platform.CampaignParams{
		BidCapCPM: money.FromDollars(2),
		Creative:  ad.Creative{Headline: "after restart", Body: "b"},
	}
	id, err := routerB.CreateCampaign("acme", params)
	if err != nil {
		t.Fatalf("CreateCampaign through the restarted router: %v", err)
	}
	if _, err := routerA.CreateCampaign("acme", params); err != nil {
		t.Fatalf("CreateCampaign through the other router afterwards: %v", err)
	}
	for name, n := range map[string]*membershipNode{"A": nodeA, "B": nodeB} {
		if _, err := n.jp.Report(context.Background(), "acme", id); err != nil {
			t.Fatalf("campaign %s created through the restarted router is missing on node %s: %v", id, name, err)
		}
	}
	if version != 2 || slots != 2 {
		t.Fatalf("restarted router booted on ring v%d with %d slots, want the fleet's v2 with 2", version, slots)
	}
}

// TestFollowerlessSlot pins what a slot with no follower answers at the
// surfaces that address slots: it is healthy from the same method as any
// other slot, promoting it is refused as a conflict that says why (never
// as an unavailable shard), it is never degraded, healing it touches
// nothing, and the failover supervisor probes it without ever healing it.
func TestFollowerlessSlot(t *testing.T) {
	root := t.TempDir()
	logger := log.New(io.Discard, "", 0)
	nodeA := newMembershipNode(t, filepath.Join(root, "a"), stats.SubSeed(47, 0))
	nodeB := newMembershipNode(t, filepath.Join(root, "b"), stats.SubSeed(47, 1))
	opts := parseForTest(t, "-peers", nodeA.addr+","+nodeB.addr, "-rpc-secret", membershipSecret,
		"-peer-wait", "10s", "-failover-detect", "2ms", "-failover-heal", "1")
	n, err := boot(opts, logger)
	if err != nil {
		t.Fatal(err)
	}
	backend, admin := n.backend, n.admin
	clu := backend.(*cluster.Cluster)
	t.Cleanup(func() { clu.Close() })
	srv := httpapi.NewServer(backend, nil)
	srv.SetClusterAdmin(admin)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	var st httpapi.ClusterStatusResponse
	if code := adminJSON(t, http.MethodGet, ts.URL+"/admin/v1/cluster", nil, &st); code != http.StatusOK || len(st.Slots) != 2 {
		t.Fatalf("status: %d, %+v", code, st)
	}
	for i, sl := range st.Slots {
		if !sl.Healthy || len(sl.Replicas) != 0 || sl.Healthy != clu.ReplicaSets()[i].Healthy() {
			t.Fatalf("slot %d: %+v, want healthy with no replicas", i, sl)
		}
	}

	for _, force := range []bool{false, true} {
		body, _ := json.Marshal(httpapi.PromoteRequest{Slot: 0, Force: force})
		resp, err := http.Post(ts.URL+"/admin/v1/cluster/promote", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict || !strings.Contains(string(msg), "no follower") {
			t.Fatalf("promote (force=%v) of a follower-less slot: %d %s, want 409 naming the missing follower", force, resp.StatusCode, msg)
		}
		if _, err := clu.FailoverSlot(0, force); err == nil || errors.Is(err, cluster.ErrShardUnavailable) {
			t.Fatalf("FailoverSlot(force=%v): %v, want a refusal that is not ErrShardUnavailable", force, err)
		}
	}
	if v := clu.Version(); v != 1 {
		t.Fatalf("refused promotions moved the ring to v%d", v)
	}

	before := nodeA.control.Load() + nodeB.control.Load()
	for slot := 0; slot < 2; slot++ {
		if clu.SlotDegraded(slot) {
			t.Fatalf("slot %d reports degraded with no follower to heal", slot)
		}
		if err := clu.HealSlot(slot); err != nil {
			t.Fatalf("HealSlot(%d): %v", slot, err)
		}
	}
	sup := startFailoverSupervisor(admin, opts, logger)
	t.Cleanup(sup.Close)
	from := nodeA.probes.Load()
	waitUntil(t, "the follower-less slots to be probed", func() bool { return nodeA.probes.Load() >= from+20 })
	if n := nodeA.control.Load() + nodeB.control.Load(); n != before {
		t.Fatalf("healing follower-less slots sent %d control calls to their nodes", n-before)
	}
}

// TestStatusIsOneSnapshot: the status document pairs a ring version with a
// slot list, and both must come from the same membership. The ring here
// alternates between two slots (odd versions) and three (even ones) while
// a reader polls the status; no answer may pair one version's number with
// another's slots.
func TestStatusIsOneSnapshot(t *testing.T) {
	root := t.TempDir()
	shards := make([]cluster.Shard, 3)
	for i := range shards {
		shards[i] = newMembershipNode(t, filepath.Join(root, fmt.Sprint(i)), stats.SubSeed(53, uint64(i))).jp
	}
	clu, err := cluster.New(shards[:2], cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	admin := &membershipAdmin{clu: clu}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := clu.AddShard(shards[2]); err != nil {
				t.Errorf("AddShard %d: %v", i, err)
				return
			}
			if _, err := clu.RemoveShard(); err != nil {
				t.Errorf("RemoveShard %d: %v", i, err)
				return
			}
		}
	}()
	for polls := 0; ; polls++ {
		st := admin.Status()
		if want := 2 + int(1-st.Version%2); len(st.Slots) != want {
			t.Errorf("status reports ring v%d with %d slots, want %d", st.Version, len(st.Slots), want)
			<-done
			return
		}
		select {
		case <-done:
			if st = admin.Status(); st.Version != 101 || polls == 0 {
				t.Fatalf("after 50 add/remove cycles: ring v%d, %d polls", st.Version, polls)
			}
			return
		default:
		}
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMembershipEndpointsEndToEnd is the full dynamic-membership flow over
// real loopback RPC: a router boots over two gated shard nodes, grows the
// cluster with a replicated third slot through POST /admin/v1/cluster/
// shards, promotes the new slot's replica, and shrinks back — checking
// ring versions, user placement, and gate convergence at every step.
func TestMembershipEndpointsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback membership e2e in -short mode")
	}
	root := t.TempDir()
	logger := log.New(io.Discard, "", 0)
	nodeA := newMembershipNode(t, filepath.Join(root, "a"), stats.SubSeed(41, 0))
	nodeB := newMembershipNode(t, filepath.Join(root, "b"), stats.SubSeed(41, 1))

	opts := parseForTest(t, "-peers", nodeA.addr+","+nodeB.addr,
		"-rpc-secret", membershipSecret, "-peer-wait", "10s")
	n, err := boot(opts, logger)
	if err != nil {
		t.Fatal(err)
	}
	backend, admin := n.backend, n.admin
	clu := backend.(*cluster.Cluster)
	t.Cleanup(func() { clu.Close() })

	srv := httpapi.NewServer(backend, nil)
	srv.SetClusterAdmin(admin)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	users := make([]profile.UserID, 24)
	for i := range users {
		users[i] = profile.UserID(fmt.Sprintf("user-%03d", i))
		if err := clu.AddUser(profile.New(users[i])); err != nil {
			t.Fatalf("AddUser(%s): %v", users[i], err)
		}
	}

	// Boot ring: version 1, two healthy slots, gates seeded.
	var st httpapi.ClusterStatusResponse
	if code := adminJSON(t, http.MethodGet, ts.URL+"/admin/v1/cluster", nil, &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.Version != 1 || len(st.Slots) != 2 {
		t.Fatalf("boot status: %+v", st)
	}
	for _, sl := range st.Slots {
		if !sl.Healthy || sl.Addr == "" {
			t.Fatalf("boot slot unhealthy or unaddressed: %+v", sl)
		}
	}
	if ri, err := rpc.Do(context.Background(), nodeA.cli, rpc.OpRing, struct{}{}); err != nil || ri.Version != 1 {
		t.Fatalf("node A gate after boot push: ring %+v, err %v", ri, err)
	}

	// Grow: node C with follower D joins through the admin endpoint. The
	// owner node's -replicate boot ships its journal to D, so every user
	// migrated to C lands on D before the ack.
	nodeD := newMembershipNode(t, filepath.Join(root, "d"), stats.SubSeed(41, 3))
	nodeC := newMembershipNode(t, filepath.Join(root, "c"), stats.SubSeed(41, 2), nodeD.addr)

	var rep httpapi.ReshardReportWire
	if code := adminJSON(t, http.MethodPost, ts.URL+"/admin/v1/cluster/shards",
		httpapi.AddShardRequest{Addr: nodeC.addr, Replicas: []string{nodeD.addr}}, &rep); code != http.StatusOK {
		t.Fatalf("add shard: %d", code)
	}
	if rep.Version != 2 || rep.UsersMoved == 0 {
		t.Fatalf("add shard report: %+v", rep)
	}
	if code := adminJSON(t, http.MethodGet, ts.URL+"/admin/v1/cluster", nil, &st); code != http.StatusOK {
		t.Fatalf("status after add: %d", code)
	}
	if st.Version != 2 || len(st.Slots) != 3 || st.LastReshard == nil {
		t.Fatalf("status after add: %+v", st)
	}
	if len(st.Slots[2].Replicas) != 1 || st.Slots[2].Replicas[0] != nodeD.addr {
		t.Fatalf("slot 2 replicas: %+v", st.Slots[2])
	}
	// The bumped ring reached every node's gate, joiner included.
	for i, n := range []*membershipNode{nodeA, nodeB, nodeC, nodeD} {
		ri, err := rpc.Do(context.Background(), n.cli, rpc.OpRing, struct{}{})
		if err != nil || ri.Version != 2 || len(ri.Shards) != 3 {
			t.Fatalf("node %d gate: ring %+v, err %v", i, ri, err)
		}
	}
	// Every migrated user reached the follower before the ack.
	if !followStatus(nodeD.jp).Synced || followStatus(nodeD.jp).ShipLSN != nodeC.jp.LastLSN() {
		t.Fatalf("follower D at %d (synced=%v), owner C at %d",
			followStatus(nodeD.jp).ShipLSN, followStatus(nodeD.jp).Synced, nodeC.jp.LastLSN())
	}

	// Promotion guards: a replica-less slot refuses, and so does a
	// replicated slot whose owner is still answering health checks —
	// promoting under a healthy owner would fork the chain, so the
	// unforced call must come back 409 and change nothing.
	if code := adminJSON(t, http.MethodPost, ts.URL+"/admin/v1/cluster/promote",
		httpapi.PromoteRequest{Slot: 0}, nil); code != http.StatusConflict {
		t.Fatalf("promote replica-less slot: %d, want 409", code)
	}
	if code := adminJSON(t, http.MethodPost, ts.URL+"/admin/v1/cluster/promote",
		httpapi.PromoteRequest{Slot: 2}, nil); code != http.StatusConflict {
		t.Fatalf("promote under a healthy owner: %d, want 409", code)
	}
	// A promotion that cannot reach the slot's only follower is not a
	// refusal: the fleet is unavailable, the answer is 503 + Retry-After
	// like every public route's, and nothing changed.
	nodeD.down.Store(true)
	body, _ := json.Marshal(httpapi.PromoteRequest{Slot: 2, Force: true})
	resp, err := http.Post(ts.URL+"/admin/v1/cluster/promote", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("promote with the only follower down: %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	nodeD.down.Store(false)
	if v := clu.Version(); v != 2 {
		t.Fatalf("refused promotion moved the ring to v%d", v)
	}
	// A planned handover is explicit: Force promotes D and bumps the ring
	// version, fencing C behind it.
	var pr httpapi.PromoteResponse
	if code := adminJSON(t, http.MethodPost, ts.URL+"/admin/v1/cluster/promote",
		httpapi.PromoteRequest{Slot: 2, Force: true}, &pr); code != http.StatusOK {
		t.Fatalf("forced promote slot 2: %d", code)
	}
	if pr.Slot != 2 || pr.Addr != nodeD.addr || pr.Version != 3 {
		t.Fatalf("promotion landed on %+v, want slot 2 owner %s at ring v3", pr, nodeD.addr)
	}
	// The bumped ring reached the deposed owner: C now refuses stale
	// writes instead of applying them.
	if ri, err := rpc.Do(context.Background(), nodeC.cli, rpc.OpRing, struct{}{}); err != nil || ri.Version != 3 {
		t.Fatalf("deposed owner's gate: ring %+v, err %v", ri, err)
	}
	// The promoted slot still serves its users: reads and writes route to
	// the new owner under the bumped ring version.
	var slot2 profile.UserID
	for _, u := range users {
		if clu.Owner(u) == 2 {
			slot2 = u
			break
		}
	}
	if slot2 == "" {
		t.Fatal("no user landed on the new slot")
	}
	if clu.User(slot2) == nil {
		t.Fatalf("user %s unreadable after promotion", slot2)
	}
	if err := clu.LikePage(slot2, "page-x"); err != nil {
		t.Fatalf("write to promoted slot: %v", err)
	}

	// Shrink: the promoted slot drains back onto the original two nodes.
	if code := adminJSON(t, http.MethodDelete, ts.URL+"/admin/v1/cluster/shards", nil, &rep); code != http.StatusOK {
		t.Fatalf("remove shard: %d", code)
	}
	if rep.Version != 4 || rep.UsersMoved == 0 {
		t.Fatalf("remove shard report: %+v", rep)
	}
	if code := adminJSON(t, http.MethodPost, ts.URL+"/admin/v1/cluster/resume", nil, nil); code != http.StatusOK {
		t.Fatalf("resume: %d", code)
	}
	if code := adminJSON(t, http.MethodGet, ts.URL+"/admin/v1/cluster", nil, &st); code != http.StatusOK {
		t.Fatalf("final status: %d", code)
	}
	if st.Version != 4 || len(st.Slots) != 2 || st.PendingRemovals != 0 {
		t.Fatalf("final status: %+v", st)
	}
	// No user was lost across grow, promote, and shrink.
	if got := len(clu.Users()); got != len(users) {
		t.Fatalf("cluster holds %d users after the cycle, want %d", got, len(users))
	}
	if clu.User(slot2) == nil {
		t.Fatalf("user %s lost in the shrink", slot2)
	}
}

// readRepoFile reads a repo-root-relative file from the package test dir.
func readRepoFile(t *testing.T, rel string) ([]byte, error) {
	t.Helper()
	return os.ReadFile(filepath.Join("..", "..", rel))
}

// flagSetForDocs registers the daemon's flags without parsing anything, so
// doc tests can read registered usage strings.
func flagSetForDocs(t *testing.T) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("adplatformd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if _, err := parseFlags(fs, nil); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestFlagDocsConsistent pins the flag/runbook contract: every registered
// flag has a row in docs/OPERATIONS.md's flags table carrying the exact
// usage text the binary prints, and both the package doc and the runbook
// state that a router adopts the fleet's newer ring at boot over its
// -peers.
func TestFlagDocsConsistent(t *testing.T) {
	raw, err := readRepoFile(t, "docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("reading runbook: %v", err)
	}
	doc := string(raw)

	rows := map[string]string{}
	for _, line := range strings.Split(doc, "\n") {
		if rest, ok := strings.CutPrefix(line, "| `-"); ok {
			name, _, _ := strings.Cut(rest, "`")
			rows[name] = line
		}
	}
	flagSetForDocs(t).VisitAll(func(f *flag.Flag) {
		row, ok := rows[f.Name]
		if !ok {
			t.Errorf("docs/OPERATIONS.md's flags table has no row for -%s", f.Name)
		} else if !strings.Contains(row, f.Usage) {
			t.Errorf("docs/OPERATIONS.md describes -%s differently from the usage text %q", f.Name, f.Usage)
		}
	})

	// The boot contract appears verbatim in both the binary's package
	// documentation and the runbook.
	const sentinel = "adopts the fleet's newer ring"
	src, err := readRepoFile(t, "cmd/adplatformd/main.go")
	if err != nil {
		t.Fatalf("reading package doc: %v", err)
	}
	if !strings.Contains(string(src), sentinel) {
		t.Errorf("adplatformd package doc no longer states the %q contract", sentinel)
	}
	if !strings.Contains(doc, sentinel) {
		t.Errorf("docs/OPERATIONS.md no longer states the %q contract", sentinel)
	}
}
