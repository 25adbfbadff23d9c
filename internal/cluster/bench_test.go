package cluster_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/health"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
	"github.com/treads-project/treads/internal/workload"
)

// benchCluster builds an n-shard cluster loaded with users and one
// always-eligible campaign, so every BrowseFeed runs real auctions.
func benchCluster(b *testing.B, n, users int) (*cluster.Cluster, []profile.UserID) {
	b.Helper()
	c, err := cluster.NewInMemory(n, platform.Config{Seed: 42}, cluster.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]profile.UserID, users)
	for i := range ids {
		pr := profile.New(profile.UserID(fmt.Sprintf("user-%06d", i)))
		pr.Nation = "US"
		pr.AgeYrs = 20 + i%50
		if err := c.AddUser(pr); err != nil {
			b.Fatal(err)
		}
		ids[i] = pr.ID
	}
	if err := c.RegisterAdvertiser("bench"); err != nil {
		b.Fatal(err)
	}
	if _, err := c.CreateCampaign("bench", platform.CampaignParams{
		Spec:      audience.Spec{Expr: attr.MustParse("age(18, 80)")},
		BidCapCPM: money.FromDollars(4),
		Creative:  ad.Creative{Headline: "bench", Body: "bench"},
	}); err != nil {
		b.Fatal(err)
	}
	return c, ids
}

// BenchmarkClusterBrowseFeedParallel is the scaling proof for the
// tentpole: the same parallel browse workload against 1, 2, 4, and 8
// shards. The 1-shard case is the single-mutex baseline; with user
// traffic partitioned, more shards means less lock contention per shard
// and higher aggregate throughput on multi-core hardware.
func BenchmarkClusterBrowseFeedParallel(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, ids := benchCluster(b, shards, 2000)
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					uid := ids[int(next.Add(1))%len(ids)]
					if _, err := c.BrowseFeed(uid, 3); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkClusterPotentialReachParallel measures the scatter-gather read
// path under parallel load: every call fans out to all shards through the
// bounded worker pool and merges exact counts.
func BenchmarkClusterPotentialReachParallel(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, _ := benchCluster(b, shards, 2000)
			spec := audience.Spec{Expr: attr.MustParse("age(18, 80)")}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := c.PotentialReach(context.Background(), "bench", spec); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkClusterMixedWorkload runs the workload driver's op mix through
// the cluster — the end-to-end number for the concurrent-driver satellite.
func BenchmarkClusterMixedWorkload(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, ids := benchCluster(b, shards, 2000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := workload.Drive(c, workload.DriverConfig{
					Goroutines:      8,
					OpsPerGoroutine: 50,
					Users:           ids,
					Seed:            uint64(i + 1),
				})
				if st.Errors != 0 {
					b.Fatalf("driver errors: %d", st.Errors)
				}
			}
		})
	}
}

// BenchmarkClusterCreateCampaignJournaled is one advertiser creating
// campaigns back to back on two journaled shards that really fsync: the
// shards commit side by side, so ns/op must read about one journal commit
// (BenchmarkAppendSerial in internal/journal), not two.
func BenchmarkClusterCreateCampaignJournaled(b *testing.B) {
	root := b.TempDir()
	shards := make([]cluster.Shard, 2)
	for i := range shards {
		jp, err := platform.OpenJournaled(filepath.Join(root, fmt.Sprint(i)), journal.Options{},
			func() (*platform.Platform, error) { return platform.New(platform.Config{Seed: uint64(i + 1)}), nil })
		if err != nil {
			b.Fatal(err)
		}
		shards[i] = jp
	}
	c, err := cluster.New(shards, cluster.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterAdvertiser("bench"); err != nil {
		b.Fatal(err)
	}
	params := campaignNamed("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CreateCampaign("bench", params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReshardCutover measures live resharding on a journaled cluster
// with real impression and billing state to move: each iteration grows a
// 3-shard cluster by one shard and shrinks it back. cutover-us/reshard is
// the mean write-fence window (ReshardReport.Cutover) — the only period
// user writes block, the availability number the elastic-cluster design
// budgets; ns/op is the whole grow+shrink including the streaming that
// runs while writes keep flowing. Journals run NoSync: the protocol under
// test is snapshot + tail + fence, not fsync.
func BenchmarkReshardCutover(b *testing.B) {
	const users = 3000
	c, _, root := newElasticCluster(b, 3, 5)
	populateElastic(b, c, users)
	var cutover time.Duration
	var moved int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		joiner := openElasticShard(b, filepath.Join(root, fmt.Sprintf("joiner-%d", i)), stats.SubSeed(5, uint64(3+i)))
		b.StartTimer()
		grow, err := c.AddShard(joiner)
		if err != nil {
			b.Fatalf("AddShard: %v", err)
		}
		shrink, err := c.RemoveShard()
		if err != nil {
			b.Fatalf("RemoveShard: %v", err)
		}
		b.StopTimer()
		cutover += grow.Cutover + shrink.Cutover
		moved += grow.UsersMoved + shrink.UsersMoved
		if err := joiner.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	if got := len(c.Users()); got != users {
		b.Fatalf("population drifted across reshards: %d users, want %d", got, users)
	}
	b.ReportMetric(float64(cutover.Microseconds())/float64(2*b.N), "cutover-us/reshard")
	b.ReportMetric(float64(moved)/float64(2*b.N), "users-moved/reshard")
}

// BenchmarkFailoverDetectToPromote measures the self-healing loop end to
// end: each iteration boots a replicated slot (journaled owner shipping to
// a synced follower), kills the owner, and lets a health supervisor probing
// the cluster every 2 ms — as the daemon runs it — detect the kill and
// promote the follower with no admin call. Healing the deposed owner back
// in is outside the measured window.
// ns/op is kill → promoted, the write unavailability of one owner failure
// (detection window = probe interval × miss threshold, plus the promotion);
// promote-us/op is the supervisor-reported down-verdict → promoted part.
func BenchmarkFailoverDetectToPromote(b *testing.B) {
	var promote time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rs, owner, follower := newChainedSet(b, 5)
		c, err := cluster.NewFromSets([]*cluster.ReplicaSet{rs}, cluster.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// Ship a prefix so the follower is a synced, promotable chain
		// member — the supervisor refuses to promote an unsynced one.
		populateElastic(b, c, 32)
		if !followStatus(follower).Synced {
			b.Fatal("follower never synced")
		}
		promoted := make(chan time.Duration, 1)
		sup := health.NewSupervisor(c, health.Config{
			Interval:   2 * time.Millisecond,
			OnFailover: func(_ int, d time.Duration) { promoted <- d },
		})
		b.StartTimer()
		owner.down.Store(true)
		select {
		case d := <-promoted:
			promote += d
		case <-time.After(10 * time.Second):
			b.Fatal("supervisor never promoted")
		}
		b.StopTimer()
		sup.Close()
		if rs.Owner() != cluster.Shard(follower) {
			b.Fatal("promotion picked the wrong member")
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(promote.Microseconds())/float64(b.N), "promote-us/op")
}
