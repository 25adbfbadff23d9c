package cluster

import (
	"fmt"
	"strconv"
	"testing"

	"github.com/treads-project/treads/internal/obs"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// TestClusterMetrics drives routed, replicated, and gathered operations and
// asserts the coordinator counted them against the right families.
func TestClusterMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewInMemory(4, platform.Config{Seed: 1}, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}

	const users = 200
	for i := 0; i < users; i++ {
		u := profile.New(profile.UserID(fmt.Sprintf("u%04d", i)))
		u.SetCountry("US")
		u.AgeYrs = 30
		if err := c.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RegisterAdvertiser("tp"); err != nil {
		t.Fatal(err)
	}
	_ = c.Users() // multi-shard: scatter-gathers

	shardOps := reg.CounterVec("cluster_shard_user_ops_total", "", "shard")
	var routed uint64
	for i := 0; i < 4; i++ {
		n := shardOps.With(strconv.Itoa(i)).Value()
		if n == 0 {
			t.Errorf("shard %d routed 0 user ops; ring should spread %d users over 4 shards", i, users)
		}
		routed += n
	}
	if routed != users {
		t.Errorf("routed ops = %d, want %d (one AddUser per user)", routed, users)
	}

	if got := reg.Counter("cluster_replicated_ops_total", "").Value(); got != 1 {
		t.Errorf("replicated ops = %d, want 1", got)
	}
	if got := reg.Counter("cluster_replication_divergence_total", "").Value(); got != 0 {
		t.Errorf("divergence = %d, want 0", got)
	}
	if snap := reg.Histogram("cluster_replicate_seconds", "").Snapshot(); snap.Count != 1 {
		t.Errorf("replicate_seconds count = %d, want 1: one fan-out per replicated mutation", snap.Count)
	}
	if snap := reg.Histogram("cluster_gather_seconds", "").Snapshot(); snap.Count == 0 {
		t.Error("gather_seconds count = 0, want > 0 after Users()")
	}
}
