package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/rpc"
)

// TestPromoteRefusesHealthyOwner pins the promotion guard: promoting a
// slot whose owner is answering health checks would fork the replica
// chain (two members accepting writes for one slot), so Promote must
// refuse with the typed error and change nothing. A planned handover
// goes through Promote(true).
func TestPromoteRefusesHealthyOwner(t *testing.T) {
	rs, owner, follower := newChainedSet(t, 101)
	c, err := cluster.NewFromSets([]*cluster.ReplicaSet{rs}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	populateElastic(t, c, 8)

	idx, err := rs.Promote(false)
	if !errors.Is(err, cluster.ErrOwnerHealthy) {
		t.Fatalf("Promote with healthy owner: %v, want ErrOwnerHealthy", err)
	}
	if idx != -1 {
		t.Fatalf("refused Promote returned member %d, want -1", idx)
	}
	// The refusal changed nothing: the owner still serves writes and the
	// follower still follows.
	if !rs.WriteHealthy() {
		t.Fatal("WriteHealthy() false after a refused promotion")
	}
	if !followStatus(follower).Following || !followStatus(follower).Synced {
		t.Fatal("follower disturbed by a refused promotion")
	}

	// FailoverSlot applies the same guard on the coordinator surface.
	if _, err := c.FailoverSlot(0, false); !errors.Is(err, cluster.ErrOwnerHealthy) {
		t.Fatalf("FailoverSlot with healthy owner: %v, want ErrOwnerHealthy", err)
	}

	// A planned handover is still possible, explicitly.
	idx, err = rs.Promote(true)
	if err != nil {
		t.Fatalf("Promote(true): %v", err)
	}
	if idx != 1 {
		t.Fatalf("Promote(true) picked member %d, want 1", idx)
	}
	_ = owner
}

// TestReplicaReadsRoundRobin pins satellite read load balancing: with the
// owner healthy and the follower synced, user-scoped reads alternate
// between the two (counted by cluster_replica_reads_total), and the
// moment the follower stops following, reads collapse back onto the
// owner.
func TestReplicaReadsRoundRobin(t *testing.T) {
	rs, _, follower := newChainedSet(t, 103)
	reg := obs.NewRegistry()
	c, err := cluster.NewFromSets([]*cluster.ReplicaSet{rs}, cluster.Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	users, _ := populateElastic(t, c, 16)

	const reads = 40
	for i := 0; i < reads; i++ {
		if c.User(users[i%len(users)]) == nil {
			t.Fatalf("read %d lost its user", i)
		}
	}
	// Round-robin over two members: close to half the reads landed on
	// the follower. The exact count depends on how many reads populate
	// issued, so assert a generous band rather than an exact split.
	n := replicaReadCount(t, reg)
	if n < reads/4 {
		t.Fatalf("replica served %d of %d reads, want at least %d", n, reads, reads/4)
	}

	// A follower that stops following must stop serving reads instantly.
	follower.EndFollow()
	before := replicaReadCount(t, reg)
	for i := 0; i < reads; i++ {
		if c.User(users[i%len(users)]) == nil {
			t.Fatalf("read %d after EndFollow lost its user", i)
		}
	}
	if after := replicaReadCount(t, reg); after != before {
		t.Fatalf("desynced follower served %d reads", after-before)
	}
}

// TestReadsDuringPromotion holds the slot to what the user-side surface
// needs from it: reads are routed without the failover fence, so they run
// straight through a promotion and the heal that follows it. Two readers
// loop on AdPreferences across twenty forced handovers; every read must
// answer, and under -race none may touch slot state a handover is writing.
func TestReadsDuringPromotion(t *testing.T) {
	rs, _, _ := newChainedSet(t, 131)
	c, err := cluster.NewFromSets([]*cluster.ReplicaSet{rs}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	users, _ := populateElastic(t, c, 8)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.AdPreferences(users[i%len(users)]); err != nil {
					t.Errorf("read %d of reader %d during a handover: %v", i, g, err)
					return
				}
				reads.Add(1)
			}
		}(g)
	}
	stopReaders := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopReaders()
	for i := 0; i < 20; i++ {
		if _, err := c.FailoverSlot(0, true); err != nil {
			t.Fatalf("handover %d: %v", i, err)
		}
		if err := c.HealSlot(0); err != nil {
			t.Fatalf("heal %d: %v", i, err)
		}
	}
	stopReaders()
	if reads.Load() == 0 {
		t.Fatal("no read ran during the handovers")
	}
	if c.Version() != 21 {
		t.Fatalf("ring version %d after 20 handovers, want 21", c.Version())
	}
}

// replicaReadCount scrapes cluster_replica_reads_total from the registry.
func replicaReadCount(t *testing.T, reg *obs.Registry) int {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^cluster_replica_reads_total (\d+)`).FindSubmatch(buf.Bytes())
	if m == nil {
		t.Fatal("cluster_replica_reads_total not exported")
	}
	n, err := strconv.Atoi(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestAutoFailoverFencesDeposedOwner is the networked failover protocol
// test: an owner node dies, FailoverSlot promotes its synced follower and
// bumps the ring, the deposed owner returns with its old state, HealSlot
// pushes the new ring to it BEFORE resyncing it — and a stale client that
// retries a mutation against the deposed owner gets the typed stale-ring
// refusal, never a dirty write.
func TestAutoFailoverFencesDeposedOwner(t *testing.T) {
	root := t.TempDir()
	n0 := newElasticNode(t, filepath.Join(root, "n0"), 107)
	n1 := newElasticNode(t, filepath.Join(root, "n1"), 107)

	// One failed call must open the owner client's breaker: the failure
	// detector is the only probe source in this test.
	ownerShard := cluster.NewRemoteShard(rpc.NewClient(n0.addr, rpc.Options{Secret: elasticSecret, FailureThreshold: 1}))
	followerShard := cluster.NewRemoteShard(rpc.NewClient(n1.addr, rpc.Options{Secret: elasticSecret}))
	rs := cluster.NewReplicaSet(ownerShard, followerShard)

	// Owner-process shipping, daemon-style: the follower starts following
	// and the owner node is armed onto it over the rearm RPC.
	n1.jp.BeginFollow(0)
	if err := ownerShard.Rearm(context.Background(), []string{n1.addr}); err != nil {
		t.Fatalf("initial Rearm: %v", err)
	}
	c, err := cluster.NewFromSets([]*cluster.ReplicaSet{rs}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ri := c.RingInfo()
	for _, n := range []*elasticNode{n0, n1} {
		if _, err := rpc.Do(context.Background(), n.client, rpc.OpSetRing, ri); err != nil {
			t.Fatal(err)
		}
	}

	users, _ := populateElastic(t, c, 16)
	acked := feedLens(c, users)

	// The owner process dies. One probe observes it and opens the breaker.
	n0.sn.Kill()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	if err := c.ProbeSlotOwner(ctx, 0); err == nil {
		t.Fatal("probe of a dead owner succeeded")
	}
	cancel()

	// Automatic promotion: follower takes the slot, ring version bumps.
	idx, err := c.FailoverSlot(0, false)
	if err != nil {
		t.Fatalf("FailoverSlot: %v", err)
	}
	if idx != 1 {
		t.Fatalf("promoted member %d, want 1", idx)
	}
	if c.Version() != 2 {
		t.Fatalf("ring version %d after failover, want 2", c.Version())
	}
	// Every acknowledged write survived, and traffic resumes on the new
	// owner with no process restarted.
	if got := feedLens(c, users); fmt.Sprint(got) != fmt.Sprint(acked) {
		t.Fatal("acknowledged feeds lost across automatic promotion")
	}
	if _, err := c.BrowseFeed(users[0], 2); err != nil {
		t.Fatalf("BrowseFeed after failover: %v", err)
	}

	// The deposed owner's process returns with its pre-crash state and no
	// ring. HealSlot fences it (ring push first), then resyncs it into a
	// follower of the new owner.
	if err := n0.sn.Restart(n0.jp); err != nil {
		t.Fatal(err)
	}
	if err := c.HealSlot(0); err != nil {
		t.Fatalf("HealSlot: %v", err)
	}
	cli := rpc.NewClient(n0.addr, rpc.Options{Secret: elasticSecret})
	defer cli.Close()
	got, err := rpc.Do(context.Background(), cli, rpc.OpRing, struct{}{})
	if err != nil {
		t.Fatalf("FetchRing(deposed owner): %v", err)
	}
	if got.Version != 2 {
		t.Fatalf("deposed owner serves ring v%d after heal, want v2", got.Version)
	}
	if !followStatus(n0.jp).Following || !followStatus(n0.jp).Synced {
		t.Fatal("deposed owner not resynced into a follower")
	}

	// The fence: a stale client retrying a mutation against the deposed
	// owner is refused with the typed 409 and the write is NOT applied.
	lsnBefore := n0.jp.LastLSN()
	if _, err := cluster.NewRemoteShard(cli).BrowseFeedCtx(context.Background(), users[0], 2); !errors.Is(err, rpc.ErrStaleRing) {
		t.Fatalf("mutation against deposed owner: %v, want ErrStaleRing", err)
	}
	if n0.jp.LastLSN() != lsnBefore {
		t.Fatalf("deposed owner applied a fenced write (LSN %d -> %d)", lsnBefore, n0.jp.LastLSN())
	}

	// And the healed chain ships again: a write through the router lands
	// on both members, leaving them byte-identical.
	if _, err := c.BrowseFeed(users[1], 2); err != nil {
		t.Fatalf("BrowseFeed after heal: %v", err)
	}
	if stateJSON(t, n0.jp) != stateJSON(t, n1.jp) {
		t.Fatal("deposed owner diverged from new owner after heal")
	}
}

// TestHealSlotUnderConcurrentWrites heals a returning deposed owner back
// into a networked chain while four writers browse through the router.
// The arm step that tells the new owner to ship to the healed member runs
// inside the write fence, so no write lands between the member's reinstall
// and the owner shipping to it: every write succeeds, and the healed
// member ends byte-identical to the owner.
func TestHealSlotUnderConcurrentWrites(t *testing.T) {
	root := t.TempDir()
	n0 := newElasticNode(t, filepath.Join(root, "n0"), 109)
	n1 := newElasticNode(t, filepath.Join(root, "n1"), 109)
	owner := cluster.NewRemoteShard(rpc.NewClient(n0.addr, rpc.Options{Secret: elasticSecret, FailureThreshold: 1}))
	rs := cluster.NewReplicaSet(owner, cluster.NewRemoteShard(rpc.NewClient(n1.addr, rpc.Options{Secret: elasticSecret})))
	n1.jp.BeginFollow(0)
	if err := owner.Rearm(context.Background(), []string{n1.addr}); err != nil {
		t.Fatalf("arming the owner node: %v", err)
	}
	c, err := cluster.NewFromSets([]*cluster.ReplicaSet{rs}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	users, _ := populateElastic(t, c, 16)

	n0.sn.Kill()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	if err := c.ProbeSlotOwner(ctx, 0); err == nil {
		t.Fatal("probe of a dead owner succeeded")
	}
	cancel()
	if _, err := c.FailoverSlot(0, false); err != nil {
		t.Fatalf("FailoverSlot: %v", err)
	}
	if err := n0.sn.Restart(n0.jp); err != nil {
		t.Fatal(err)
	}

	const writers = 4
	stop := make(chan struct{})
	started := make(chan struct{}, writers) // one send per writer
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i += writers {
				_, err := c.BrowseFeed(users[i%len(users)], 1)
				if i == g {
					started <- struct{}{}
				}
				if err != nil {
					t.Errorf("browse %d during the heal: %v", i, err)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(g)
	}
	for g := 0; g < writers; g++ {
		<-started
	}
	err = c.HealSlot(0)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("HealSlot: %v", err)
	}
	if _, err := c.BrowseFeed(users[0], 2); err != nil {
		t.Fatalf("browse after the heal: %v", err)
	}
	if stateJSON(t, n0.jp) != stateJSON(t, n1.jp) {
		t.Fatal("healed member differs from the owner")
	}
}
