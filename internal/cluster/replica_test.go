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

// TestReplicaDesyncedFollowerResyncsByTail drops one shipped record on the
// floor, which must (a) surface an error to the writing caller — the write
// is indeterminate — and (b) desync the follower so it refuses further
// shipments, until Heal replays the owner's journal tail.
func TestReplicaDesyncedFollowerResyncsByTail(t *testing.T) {
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
		t.Fatal("follower state differs from owner after tail resync")
	}
	// Shipping works again end to end.
	if _, err := c.BrowseFeed(users[0], 2); err != nil {
		t.Fatalf("write after Heal: %v", err)
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
