package cluster_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
)

const recoveryShards = 3

// recoveryBoot returns the boot closure for shard i: the shard's platform
// starts with exactly the users the ring assigns it, drawn from a fixed
// 12-user population. This mirrors what cmd/adplatformd does at first boot
// — every shard runs the same deterministic generator and keeps its slice.
func recoveryBoot(i int) func() (*platform.Platform, error) {
	return func() (*platform.Platform, error) {
		ring := cluster.NewRing(recoveryShards, 0)
		p := platform.New(platform.Config{Seed: stats.SubSeed(7, uint64(i))})
		salsa := p.Catalog().Search("Salsa dance")[0].ID
		for u := 0; u < 12; u++ {
			uid := fmt.Sprintf("ju-%02d", u)
			if ring.Owner(uid) != i {
				continue
			}
			pr := profile.New(profile.UserID(uid))
			pr.Nation = "US"
			pr.AgeYrs = 25 + u
			pr.PII = pii.Record{Emails: []string{uid + "@example.com"}}
			if u%2 == 0 {
				pr.SetAttr(salsa)
			}
			if err := p.AddUser(pr); err != nil {
				return nil, err
			}
		}
		return p, nil
	}
}

// shardUsers returns one boot user per shard, so the script can touch
// every shard's user-scoped path.
func shardUsers(t *testing.T) [recoveryShards]profile.UserID {
	t.Helper()
	ring := cluster.NewRing(recoveryShards, 0)
	var out [recoveryShards]profile.UserID
	var have [recoveryShards]bool
	for u := 0; u < 12; u++ {
		uid := fmt.Sprintf("ju-%02d", u)
		o := ring.Owner(uid)
		if !have[o] {
			out[o], have[o] = profile.UserID(uid), true
		}
	}
	for i, ok := range have {
		if !ok {
			t.Fatalf("shard %d owns none of the 12 boot users", i)
		}
	}
	return out
}

// recoveryScript is the cluster-level mutation sequence. Every step is one
// cluster call, which journals at most one record per shard (replicated
// advertiser ops journal exactly one everywhere; user ops journal one on
// the owning shard only) — the invariant the kill-point sweep relies on.
func recoveryScript(t *testing.T) []func(c *cluster.Cluster) {
	t.Helper()
	users := shardUsers(t)
	uA, uB, uC := users[0], users[1], users[2]
	key, err := pii.HashEmail(string(uB) + "@example.com")
	if err != nil {
		t.Fatal(err)
	}
	newcomer := func() *profile.Profile {
		pr := profile.New("ju-late")
		pr.Nation = "US"
		pr.AgeYrs = 52
		return pr
	}
	return []func(c *cluster.Cluster){
		func(c *cluster.Cluster) { c.RegisterAdvertiser("wal-adv") },
		func(c *cluster.Cluster) { c.RegisterAdvertiser("wal-adv") }, // refused everywhere, still journaled
		func(c *cluster.Cluster) { c.IssuePixel("wal-adv") },         // px-000001 on every shard
		func(c *cluster.Cluster) { c.VisitPage(uA, "px-000001") },
		func(c *cluster.Cluster) { c.VisitPage(uB, "px-000001") },
		func(c *cluster.Cluster) { c.LikePage(uB, "page-w") },
		func(c *cluster.Cluster) { c.LikePage(uC, "page-w") },
		func(c *cluster.Cluster) { c.CreateEngagementAudience("wal-adv", "eng", "page-w") },        // aud-000001
		func(c *cluster.Cluster) { c.CreatePIIAudience("wal-adv", "list", []pii.MatchKey{key}) },   // aud-000002
		func(c *cluster.Cluster) { c.CreateWebsiteAudience("wal-adv", "web", "px-000001") },        // aud-000003
		func(c *cluster.Cluster) { c.CreateAffinityAudience("wal-adv", "aff", []string{"salsa"}) }, // aud-000004
		func(c *cluster.Cluster) {
			c.CreateCampaign("wal-adv", platform.CampaignParams{
				Spec:      audience.Spec{Include: []audience.AudienceID{"aud-000004"}},
				BidCapCPM: money.FromDollars(10),
				Creative:  ad.Creative{Headline: "salsa shoes", Body: "dance!"},
			}) // camp-000001
		},
		func(c *cluster.Cluster) { c.BrowseFeed(uA, 5) },
		func(c *cluster.Cluster) { c.BrowseFeed(uB, 5) },
		func(c *cluster.Cluster) { c.BrowseFeed(uC, 4) },
		func(c *cluster.Cluster) { c.PauseCampaign("wal-adv", "camp-000001") },
		func(c *cluster.Cluster) { c.BrowseFeed(uB, 3) },
		func(c *cluster.Cluster) { c.AddUser(newcomer()) },
		func(c *cluster.Cluster) { c.BrowseFeed("ju-late", 4) },
		func(c *cluster.Cluster) { c.BrowseFeed(uA, 2) },
	}
}

func openShards(t *testing.T, root string, boot bool) ([]*platform.Journaled, *cluster.Cluster) {
	t.Helper()
	jps := make([]*platform.Journaled, recoveryShards)
	shards := make([]cluster.Shard, recoveryShards)
	for i := range jps {
		bootFn := recoveryBoot(i)
		if !boot {
			bootFn = func() (*platform.Platform, error) {
				t.Fatal("boot called during recovery of an existing journal")
				return nil, nil
			}
		}
		jp, err := platform.OpenJournaled(shardDir(root, i), journal.Options{NoSync: true}, bootFn)
		if err != nil {
			t.Fatalf("OpenJournaled(shard %d): %v", i, err)
		}
		jps[i], shards[i] = jp, jp
	}
	c, err := cluster.New(shards, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return jps, c
}

func shardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%03d", i))
}

func marshalJournaled(t *testing.T, jp *platform.Journaled) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := platform.WriteSnapshot(&buf, jp.State()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runRecoveryMaster drives the script on a fresh 3-shard journaled
// cluster rooted at root, recording every shard's exact state keyed by
// that shard's LSN after each step (plus the boot state at the shard's
// boot LSN). It closes the cluster before returning.
func runRecoveryMaster(t *testing.T, root string) (refStates []map[uint64][]byte, final [][]byte) {
	t.Helper()
	jps, c := openShards(t, root, true)
	refStates = make([]map[uint64][]byte, recoveryShards)
	record := func() {
		for i, jp := range jps {
			lsn := jp.LastLSN()
			if _, ok := refStates[i][lsn]; !ok {
				refStates[i][lsn] = marshalJournaled(t, jp)
			}
		}
	}
	for i := range jps {
		refStates[i] = make(map[uint64][]byte)
	}
	record()
	for _, step := range recoveryScript(t) {
		step(c)
		record()
	}
	final = make([][]byte, recoveryShards)
	for i, jp := range jps {
		final[i] = marshalJournaled(t, jp)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return refStates, final
}

// TestClusterJournaledRecovery boots a journaled 3-shard cluster, drives
// the script, closes, and reopens every shard: each must recover
// byte-identically, and the reassembled cluster must serve reads and
// accept new replicated work without divergence.
func TestClusterJournaledRecovery(t *testing.T) {
	root := t.TempDir()
	_, final := runRecoveryMaster(t, root)

	jps, c := openShards(t, root, false)
	defer c.Close()
	for i, jp := range jps {
		if got := marshalJournaled(t, jp); !bytes.Equal(got, final[i]) {
			t.Fatalf("shard %d: recovered state differs from pre-shutdown state (%d vs %d bytes)", i, len(got), len(final[i]))
		}
	}
	if got := len(c.Users()); got != 13 {
		t.Fatalf("reassembled cluster has %d users, want 13", got)
	}
	for _, uid := range shardUsers(t) {
		if _, err := c.BrowseFeed(uid, 2); err != nil {
			t.Fatalf("post-recovery browse(%s): %v", uid, err)
		}
	}
	// New replicated work applies cleanly: all shards recovered the same
	// advertiser namespace and ID counters.
	if err := c.RegisterAdvertiser("post-restart"); err != nil {
		t.Fatalf("post-recovery replicated mutation: %v", err)
	}
	if _, err := c.IssuePixel("post-restart"); err != nil {
		t.Fatalf("post-recovery pixel: %v", err)
	}
}

// TestClusterShardCrashSweep is the acceptance crash test on a cluster
// member: shard 1's WAL is truncated at byte offsets spanning the whole
// segment, and every truncation must recover that shard to exactly the
// state it had after some prefix of the cluster script.
func TestClusterShardCrashSweep(t *testing.T) {
	const victim = 1
	root := t.TempDir()
	refStates, _ := runRecoveryMaster(t, root)

	master := shardDir(root, victim)
	segs, err := filepath.Glob(filepath.Join(master, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("want exactly 1 WAL segment for the sweep, got %v", segs)
	}
	whole, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(master, "snap-*.db"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("want exactly 1 snapshot, got %v", snaps)
	}
	snapData, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}

	stride := 7
	if testing.Short() {
		stride = 61
	}
	noBoot := func() (*platform.Platform, error) {
		t.Fatal("boot called during crash recovery")
		return nil, nil
	}
	maxLSN := uint64(0)
	for cut := 0; cut <= len(whole); cut += stride {
		dir := filepath.Join(t.TempDir(), "crash")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(snaps[0])), snapData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		jc, err := platform.OpenJournaled(dir, journal.Options{NoSync: true}, noBoot)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		k := jc.LastLSN()
		want, ok := refStates[victim][k]
		if !ok {
			t.Fatalf("cut %d: recovered to LSN %d, which no script prefix produced", cut, k)
		}
		if got := marshalJournaled(t, jc); !bytes.Equal(got, want) {
			t.Fatalf("cut %d: recovered state at LSN %d differs from reference", cut, k)
		}
		if err := jc.RegisterAdvertiser(fmt.Sprintf("post-crash-%d", cut)); err != nil {
			t.Fatalf("cut %d: post-recovery mutation refused: %v", cut, err)
		}
		if k > maxLSN {
			maxLSN = k
		}
		jc.Close()
	}
	if maxLSN == 0 {
		t.Fatal("sweep never recovered past the boot state; stride too coarse or WAL empty")
	}
}
