package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// frailShard embeds a journaled platform and adds a kill switch, modelling
// an owner process that stops answering without losing its disk.
type frailShard struct {
	*platform.Journaled
	down atomic.Bool
}

func (f *frailShard) Healthy() bool { return !f.down.Load() }

// newChainedSet boots an owner and one follower from the same seed, wires
// journal shipping, and puts the follower in follow mode from LSN 0 — the
// deployment shape where a replica is attached before any traffic.
func newChainedSet(t testing.TB, seed uint64) (*cluster.ReplicaSet, *frailShard, *platform.Journaled) {
	t.Helper()
	root := t.TempDir()
	owner := &frailShard{Journaled: openElasticShard(t, filepath.Join(root, "owner"), seed)}
	follower := openElasticShard(t, filepath.Join(root, "follower"), seed)
	follower.BeginFollow(0)
	rs := cluster.NewReplicaSet(owner, follower)
	if err := rs.Chain(); err != nil {
		t.Fatalf("Chain: %v", err)
	}
	return rs, owner, follower
}

// followStatus reads an in-process member's follow status (it cannot
// fail).
func followStatus(m platform.Member) platform.FollowStatus {
	st, _ := m.FollowStatus()
	return st
}

func stateJSON(t *testing.T, s platform.Member) string {
	t.Helper()
	st, _, err := s.StateAndLSN(false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestReplicaChainFailoverAndPromote(t *testing.T) {
	rs, owner, follower := newChainedSet(t, 71)
	c, err := cluster.NewFromSets([]*cluster.ReplicaSet{rs}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	users, camp := populateElastic(t, c, 24)

	// Every acknowledged write reached the follower: states byte-identical.
	if !followStatus(follower).Synced || followStatus(follower).ShipLSN != owner.LastLSN() {
		t.Fatalf("follower at LSN %d (synced=%v), owner at %d", followStatus(follower).ShipLSN, followStatus(follower).Synced, owner.LastLSN())
	}
	if stateJSON(t, owner.Journaled) != stateJSON(t, follower) {
		t.Fatal("follower state diverged from owner under chained writes")
	}
	ackedFeeds := feedLens(c, users)

	// Kill the owner. Reads fail over to the follower; writes are refused
	// with the typed unavailability error (no implicit promotion).
	owner.down.Store(true)
	if rs.WriteHealthy() {
		t.Fatal("WriteHealthy() true with the owner down")
	}
	if !rs.Healthy() {
		t.Fatal("Healthy() false with a live follower")
	}
	for _, u := range users {
		if c.User(u) == nil {
			t.Fatalf("User(%s) lost during failover reads", u)
		}
	}
	if got := feedLens(c, users); fmt.Sprint(got) != fmt.Sprint(ackedFeeds) {
		t.Fatal("failover reads disagree with the acknowledged feeds")
	}
	if _, err := c.BrowseFeed(users[0], 2); !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("BrowseFeed with owner down: %v, want ErrShardUnavailable", err)
	}
	if err := c.RegisterAdvertiser("late"); !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("replicated mutation with owner down: %v, want ErrShardUnavailable", err)
	}

	// Promote the follower; every acknowledged write must survive, and
	// traffic resumes.
	idx, err := rs.Promote(false)
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if idx != 1 {
		t.Fatalf("promoted member %d, want 1", idx)
	}
	if !rs.WriteHealthy() {
		t.Fatal("WriteHealthy() false after promotion")
	}
	if got := feedLens(c, users); fmt.Sprint(got) != fmt.Sprint(ackedFeeds) {
		t.Fatal("acknowledged feeds lost across promotion")
	}
	if _, err := c.BrowseFeed(users[1], 3); err != nil {
		t.Fatalf("BrowseFeed after promotion: %v", err)
	}
	if _, err := c.Report(context.Background(), "mover", camp); err != nil {
		t.Fatalf("Report after promotion: %v", err)
	}

	// The old owner comes back as a follower: Heal must reinstall it (it
	// was never in follow mode, so the journal-tail fast path is illegal)
	// and leave it byte-identical to the new owner.
	owner.down.Store(false)
	if err := rs.Heal(); err != nil {
		t.Fatalf("Heal: %v", err)
	}
	if !followStatus(owner).Following || !followStatus(owner).Synced {
		t.Fatal("demoted owner not following after Heal")
	}
	if stateJSON(t, owner.Journaled) != stateJSON(t, follower) {
		t.Fatal("demoted owner state differs from new owner after Heal")
	}
	// And it ships live again: a fresh write lands on both members.
	before := followStatus(owner).ShipLSN
	if _, err := c.BrowseFeed(users[2], 2); err != nil {
		t.Fatal(err)
	}
	if followStatus(owner).ShipLSN != before+1 {
		t.Fatalf("healed follower did not receive the next shipped record (at %d, was %d)", followStatus(owner).ShipLSN, before)
	}
}

func TestReplicaPromoteNeedsHealthyFollower(t *testing.T) {
	root := t.TempDir()
	owner := &frailShard{Journaled: openElasticShard(t, filepath.Join(root, "o"), 73)}
	follower := &frailShard{Journaled: openElasticShard(t, filepath.Join(root, "f"), 73)}
	follower.BeginFollow(0)
	rs := cluster.NewReplicaSet(owner, follower)
	if err := rs.Chain(); err != nil {
		t.Fatal(err)
	}
	owner.down.Store(true)
	follower.down.Store(true)
	if _, err := rs.Promote(false); !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("Promote with no healthy follower: %v, want ErrShardUnavailable", err)
	}
	if rs.Healthy() {
		t.Fatal("Healthy() true with every member down")
	}
}

// TestReplicaDesyncedFollowerIsReinstalled drops one shipped record on the
// floor, which must (a) surface an error to the writing caller — the write
// is indeterminate — and (b) desync the follower so it refuses further
// shipments, until Heal reinstalls it from the owner.
func TestReplicaDesyncedFollowerIsReinstalled(t *testing.T) {
	rs, owner, follower := newChainedSet(t, 79)
	c, err := cluster.NewFromSets([]*cluster.ReplicaSet{rs}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	users, _ := populateElastic(t, c, 8)

	// Simulate one lost shipment by advancing the owner while the follower
	// is out of follow mode, then re-following at the stale cursor.
	stale := followStatus(follower).ShipLSN
	follower.EndFollow()
	pr := profile.New("desync-probe")
	pr.Nation = "US"
	pr.AgeYrs = 44
	if err := c.AddUser(pr); err == nil {
		t.Fatal("write during a follower outage must report indeterminate (ship failed)")
	}
	follower.BeginFollow(stale)
	// The next shipment has a gap (the probe write above is missing).
	if _, err := c.BrowseFeed(users[0], 2); err == nil {
		t.Fatal("gapped shipment must surface as an indeterminate write")
	}
	if followStatus(follower).Synced {
		t.Fatal("follower still synced after a shipping gap")
	}

	if err := rs.Heal(); err != nil {
		t.Fatalf("Heal: %v", err)
	}
	if !followStatus(follower).Synced || followStatus(follower).ShipLSN != owner.LastLSN() {
		t.Fatalf("follower at %d after Heal, owner at %d", followStatus(follower).ShipLSN, owner.LastLSN())
	}
	if stateJSON(t, owner.Journaled) != stateJSON(t, follower) {
		t.Fatal("follower state differs from owner after Heal")
	}
	// Shipping works again end to end.
	if _, err := c.BrowseFeed(users[0], 2); err != nil {
		t.Fatalf("write after Heal: %v", err)
	}
}

// promoteTheHealedMember runs the chain history after which a kept
// follower's cursor counts positions in a log other than the new owner's:
// on a chain A, B, C, A dies and B is promoted and takes a write, A comes
// back and is healed (a reinstall, which leaves A's own log a record
// shorter than B's), one more write, then B dies and A is promoted. It
// returns the cluster, the members A, B, C and the users.
func promoteTheHealedMember(t *testing.T, seed uint64) (*cluster.Cluster, *cluster.ReplicaSet, []*frailShard, []profile.UserID) {
	t.Helper()
	root := t.TempDir()
	m := make([]*frailShard, 3)
	shards := make([]cluster.Shard, len(m))
	for i := range m {
		m[i] = &frailShard{Journaled: openElasticShard(t, filepath.Join(root, fmt.Sprint(i)), seed)}
		if i > 0 {
			m[i].BeginFollow(0)
		}
		shards[i] = m[i]
	}
	rs := cluster.NewReplicaSet(shards[0], shards[1:]...)
	if err := rs.Chain(); err != nil {
		t.Fatal(err)
	}
	c, err := cluster.NewFromSets([]*cluster.ReplicaSet{rs}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	users, _ := populateElastic(t, c, 8)

	m[0].down.Store(true)
	if _, err := rs.Promote(false); err != nil || rs.Owner() != m[1] {
		t.Fatalf("promoting B: %v (owner is B: %v)", err, rs.Owner() == m[1])
	}
	if _, err := c.BrowseFeed(users[0], 2); err != nil {
		t.Fatalf("write while A is down: %v", err)
	}
	m[0].down.Store(false)
	if err := rs.Heal(); err != nil {
		t.Fatalf("healing A: %v", err)
	}
	if _, err := c.BrowseFeed(users[1], 2); err != nil {
		t.Fatalf("write after the heal: %v", err)
	}
	m[1].down.Store(true)
	if _, err := rs.Promote(false); err != nil || rs.Owner() != m[0] {
		t.Fatalf("promoting the healed member: %v (owner is A: %v)", err, rs.Owner() == m[0])
	}
	return c, rs, m, users
}

// TestPromoteRepointsTheFollowersItKeeps: a follower a promotion keeps must
// take the new owner's records. C's cursor counted positions in B's log,
// and A, reinstalled from B, numbers its own.
func TestPromoteRepointsTheFollowersItKeeps(t *testing.T) {
	c, _, m, users := promoteTheHealedMember(t, 137)
	for i := 0; i < 4; i++ {
		if _, err := c.BrowseFeed(users[i], 2); err != nil {
			t.Fatalf("browse %d after the second promotion: %v", i, err)
		}
	}
	if st := followStatus(m[2]); !st.Synced || st.ShipLSN != m[0].LastLSN() {
		t.Fatalf("kept follower at %d (synced=%v), owner at %d", st.ShipLSN, st.Synced, m[0].LastLSN())
	}
}

// TestHealAfterPromotionsLeavesNoFollowerDiverged: whatever the chain went
// through, Heal leaves every follower it reaches byte-identical to the
// owner, and reports the one it cannot reach.
func TestHealAfterPromotionsLeavesNoFollowerDiverged(t *testing.T) {
	c, rs, m, users := promoteTheHealedMember(t, 139)
	for i := 0; i < 10; i++ {
		// Whether these writes ship is the previous test's concern; this
		// one is about where Heal leaves the followers.
		_, _ = c.BrowseFeed(users[i%len(users)], 2)
	}
	if err := rs.Heal(); !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("Heal with B down: %v, want B's ErrShardUnavailable", err)
	}
	owner := stateJSON(t, m[0])
	if stateJSON(t, m[2]) != owner {
		t.Fatal("C differs from the owner after Heal")
	}
	m[1].down.Store(false)
	if err := rs.Heal(); err != nil {
		t.Fatalf("Heal with every member up: %v", err)
	}
	for i, f := range m[1:] {
		if st := followStatus(f); !st.Synced || st.ShipLSN != m[0].LastLSN() || stateJSON(t, f) != owner {
			t.Fatalf("follower %c after Heal: at %d (synced=%v), owner at %d, same state %v",
				'B'+i, st.ShipLSN, st.Synced, m[0].LastLSN(), stateJSON(t, f) == owner)
		}
	}
}

// TestReplicaSetAsReshardTarget joins a replica set (owner + follower) to a
// live cluster: the migration installs the bootstrap skeleton on every
// member, imports ride journal shipping, and the follower ends the reshard
// byte-identical to its owner.
func TestReplicaSetAsReshardTarget(t *testing.T) {
	c, jps, root := newElasticCluster(t, 2, 83)
	users, _ := populateElastic(t, c, 32)

	owner := openElasticShard(t, filepath.Join(root, "rs-owner"), 999)
	follower := openElasticShard(t, filepath.Join(root, "rs-follower"), 999)
	rs := cluster.NewReplicaSet(owner, follower)
	if err := rs.Chain(); err != nil {
		t.Fatal(err)
	}
	rep, err := c.AddSet(rs)
	if err != nil {
		t.Fatalf("AddShard(replica set): %v", err)
	}
	if rep.UsersMoved == 0 {
		t.Fatal("no users moved to the replica set")
	}
	if !followStatus(follower).Synced || followStatus(follower).ShipLSN != owner.LastLSN() {
		t.Fatalf("follower at %d (synced=%v), owner at %d after join", followStatus(follower).ShipLSN, followStatus(follower).Synced, owner.LastLSN())
	}
	if stateJSON(t, owner) != stateJSON(t, follower) {
		t.Fatal("replica-set follower diverged from owner after migration")
	}

	// Moved users stay fully served, and new writes ship to the follower.
	for _, u := range users {
		if c.User(u) == nil {
			t.Fatalf("User(%s) lost", u)
		}
	}
	var movedUser profile.UserID
	for _, u := range users {
		if c.Owner(u) == 2 {
			movedUser = u
			break
		}
	}
	if movedUser == "" {
		t.Fatal("no user landed on the replica-set slot")
	}
	before := followStatus(follower).ShipLSN
	if _, err := c.BrowseFeed(movedUser, 2); err != nil {
		t.Fatal(err)
	}
	if followStatus(follower).ShipLSN != before+1 {
		t.Fatal("post-join write did not ship to the follower")
	}
	placement(t, c, append(jps, owner), users)
}
