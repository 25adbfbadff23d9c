package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/stats"
)

// openElasticShard boots a fresh journaled shard in dir with the given
// seed and no users — populations in these tests are built through the
// cluster, the way an elastic deployment grows.
func openElasticShard(t testing.TB, dir string, seed uint64) *platform.Journaled {
	t.Helper()
	jp, err := platform.OpenJournaled(dir, journal.Options{NoSync: true}, func() (*platform.Platform, error) {
		return platform.New(platform.Config{Seed: seed}), nil
	})
	if err != nil {
		t.Fatalf("OpenJournaled(%s): %v", dir, err)
	}
	return jp
}

// newElasticCluster builds an n-shard journaled cluster rooted in a temp
// dir and returns the shard handles for direct state inspection.
func newElasticCluster(t testing.TB, n int, seed uint64) (*cluster.Cluster, []*platform.Journaled, string) {
	t.Helper()
	root := t.TempDir()
	jps := make([]*platform.Journaled, n)
	shards := make([]cluster.Shard, n)
	for i := range jps {
		jps[i] = openElasticShard(t, filepath.Join(root, fmt.Sprintf("shard-%03d", i)), stats.SubSeed(seed, uint64(i)))
		shards[i] = jps[i]
	}
	c, err := cluster.New(shards, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, jps, root
}

// populateElastic loads nUsers users and one advertiser with a pixel-backed
// campaign, then browses every feed once so there is real impression and
// billing state to move. Returns the user IDs and the campaign ID.
func populateElastic(t testing.TB, c *cluster.Cluster, nUsers int) ([]profile.UserID, string) {
	t.Helper()
	users := make([]profile.UserID, nUsers)
	for i := range users {
		pr := profile.New(profile.UserID(fmt.Sprintf("eu-%04d", i)))
		pr.Nation = "US"
		pr.AgeYrs = 21 + i%40
		pr.PII = pii.Record{Emails: []string{fmt.Sprintf("eu-%04d@example.com", i)}}
		if err := c.AddUser(pr); err != nil {
			t.Fatalf("AddUser(%s): %v", pr.ID, err)
		}
		users[i] = pr.ID
	}
	if err := c.RegisterAdvertiser("mover"); err != nil {
		t.Fatal(err)
	}
	px, err := c.IssuePixel("mover")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nUsers; i += 2 {
		if err := c.VisitPage(users[i], px); err != nil {
			t.Fatalf("VisitPage(%s): %v", users[i], err)
		}
	}
	aud, err := c.CreateWebsiteAudience("mover", "visitors", px)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := c.CreateCampaign("mover", platform.CampaignParams{
		Spec:      audience.Spec{Include: []audience.AudienceID{aud}},
		BidCapCPM: money.FromDollars(3),
		Creative:  ad.Creative{Headline: "move me", Body: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, uid := range users {
		if _, err := c.BrowseFeed(uid, 8); err != nil {
			t.Fatalf("BrowseFeed(%s): %v", uid, err)
		}
	}
	return users, camp
}

// placement asserts every user lives on exactly one shard and on the shard
// the cluster's current ring owns it with.
func placement(t *testing.T, c *cluster.Cluster, jps []*platform.Journaled, users []profile.UserID) {
	t.Helper()
	held := make(map[profile.UserID][]int)
	for i, jp := range jps {
		for _, u := range jp.Users() {
			held[u] = append(held[u], i)
		}
	}
	for _, u := range users {
		shards := held[u]
		if len(shards) != 1 {
			t.Fatalf("user %s on shards %v, want exactly one", u, shards)
		}
		if want := c.Owner(u); shards[0] != want {
			t.Fatalf("user %s on shard %d, ring owner is %d", u, shards[0], want)
		}
	}
	if len(held) != len(users) {
		t.Fatalf("cluster holds %d users, want %d", len(held), len(users))
	}
}

func feedLens(c *cluster.Cluster, users []profile.UserID) map[profile.UserID]int {
	out := make(map[profile.UserID]int, len(users))
	for _, u := range users {
		out[u] = len(c.Feed(u))
	}
	return out
}

func TestAddShardMovesUsersLive(t *testing.T) {
	c, jps, root := newElasticCluster(t, 2, 41)
	users, camp := populateElastic(t, c, 64)

	wantFeeds := feedLens(c, users)
	wantReport, err := c.Report(context.Background(), "mover", camp)
	if err != nil {
		t.Fatal(err)
	}

	joiner := openElasticShard(t, filepath.Join(root, "shard-join"), 999)
	rep, err := c.AddShard(joiner)
	if err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	if c.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", c.Shards())
	}
	if c.Version() != 2 || rep.Version != 2 {
		t.Fatalf("version = %d (report %d), want 2", c.Version(), rep.Version)
	}
	if rep.UsersMoved == 0 {
		t.Fatal("AddShard moved no users; the new slot got an empty range, which the ring should not produce at this size")
	}
	if got := c.LastReshard(); got != rep {
		t.Fatalf("LastReshard() = %+v, want %+v", got, rep)
	}
	if active, pending := c.MigrationStatus(); active || pending != 0 {
		t.Fatalf("MigrationStatus() = (%v, %d) after a clean reshard", active, pending)
	}

	placement(t, c, append(jps, joiner), users)
	if got := feedLens(c, users); !reflect.DeepEqual(got, wantFeeds) {
		t.Fatal("feed histories changed across the reshard")
	}
	gotReport, err := c.Report(context.Background(), "mover", camp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotReport, wantReport) {
		t.Fatalf("report changed across reshard:\n  before %+v\n  after  %+v", wantReport, gotReport)
	}

	// The moved users keep full service on their new shard: transparency
	// reads and fresh writes.
	for _, u := range users {
		if c.User(u) == nil {
			t.Fatalf("User(%s) lost after reshard", u)
		}
	}
	if _, err := c.BrowseFeed(users[0], 4); err != nil {
		t.Fatalf("BrowseFeed after reshard: %v", err)
	}
}

func TestRemoveShardDrainsVictim(t *testing.T) {
	c, jps, _ := newElasticCluster(t, 3, 43)
	users, camp := populateElastic(t, c, 48)

	wantFeeds := feedLens(c, users)
	wantReport, err := c.Report(context.Background(), "mover", camp)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := c.RemoveShard()
	if err != nil {
		t.Fatalf("RemoveShard: %v", err)
	}
	if c.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", c.Shards())
	}
	if c.Version() != 2 || rep.Version != 2 {
		t.Fatalf("version = %d, want 2", c.Version())
	}
	if n := len(jps[2].Users()); n != 0 {
		t.Fatalf("victim shard still holds %d users", n)
	}
	placement(t, c, jps[:2], users)
	if got := feedLens(c, users); !reflect.DeepEqual(got, wantFeeds) {
		t.Fatal("feed histories changed across shard removal")
	}
	gotReport, err := c.Report(context.Background(), "mover", camp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotReport, wantReport) {
		t.Fatalf("report changed across shard removal:\n  before %+v\n  after  %+v", wantReport, gotReport)
	}

	// A 1-shard cluster refuses to shrink further.
	if _, err := c.RemoveShard(); err != nil {
		t.Fatalf("second RemoveShard: %v", err)
	}
	if _, err := c.RemoveShard(); err == nil {
		t.Fatal("RemoveShard on a 1-shard cluster should refuse")
	}
}

func TestAddShardRejectsNonMigratable(t *testing.T) {
	// In-memory shards have no journaled export/import surface.
	mem, err := cluster.NewInMemory(2, platform.Config{Seed: 5}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.AddShard(platform.New(platform.Config{Seed: 6})); !errors.Is(err, cluster.ErrMigrationUnsupported) {
		t.Fatalf("AddShard on in-memory cluster: %v, want ErrMigrationUnsupported", err)
	}

	// A journaled cluster refuses an in-memory joiner — and stays intact.
	c, _, _ := newElasticCluster(t, 2, 44)
	populateElastic(t, c, 16)
	if _, err := c.AddShard(platform.New(platform.Config{Seed: 6})); !errors.Is(err, cluster.ErrMigrationUnsupported) {
		t.Fatalf("AddShard(in-memory joiner): %v, want ErrMigrationUnsupported", err)
	}
	if c.Shards() != 2 || c.Version() != 1 {
		t.Fatalf("failed AddShard changed membership: %d shards, version %d", c.Shards(), c.Version())
	}
}

// TestReshardUnderConcurrentWrites drives user writes from four goroutines
// straight through an AddShard and checks the core guarantee: every
// impression acknowledged to a caller is present in that user's feed
// afterwards — moved or not — and placement is exact.
func TestReshardUnderConcurrentWrites(t *testing.T) {
	c, jps, root := newElasticCluster(t, 2, 47)
	users, _ := populateElastic(t, c, 40)

	base := feedLens(c, users)
	acked := make([]int64, len(users))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (round*4 + w) % len(users)
				imps, err := c.BrowseFeed(users[i], 3)
				if err != nil {
					t.Errorf("BrowseFeed(%s) during reshard: %v", users[i], err)
					return
				}
				atomic.AddInt64(&acked[i], int64(len(imps)))
			}
		}(w)
	}

	joiner := openElasticShard(t, filepath.Join(root, "shard-join"), 999)
	rep, err := c.AddShard(joiner)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("AddShard under writes: %v", err)
	}
	if rep.UsersMoved == 0 {
		t.Fatal("no users moved")
	}

	placement(t, c, append(jps, joiner), users)
	for i, u := range users {
		want := base[u] + int(atomic.LoadInt64(&acked[i]))
		if got := len(c.Feed(u)); got != want {
			t.Fatalf("user %s: feed has %d impressions, acknowledged %d", u, got, want)
		}
	}
}

// failRemoveShard embeds a journaled shard and makes RemoveUsers fail on
// demand — the shape of a source node that crashed right after a cutover.
type failRemoveShard struct {
	*platform.Journaled
	fail atomic.Bool
}

func (f *failRemoveShard) RemoveUsers(users []profile.UserID) error {
	if f.fail.Load() {
		return errors.New("injected: source node unreachable")
	}
	return f.Journaled.RemoveUsers(users)
}

func TestPendingRemovalGatesAggregatesUntilResume(t *testing.T) {
	root := t.TempDir()
	src := &failRemoveShard{Journaled: openElasticShard(t, filepath.Join(root, "src"), stats.SubSeed(53, 0))}
	c, err := cluster.New([]cluster.Shard{src}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	users, camp := populateElastic(t, c, 24)

	src.fail.Store(true)
	joiner := openElasticShard(t, filepath.Join(root, "join"), 999)
	if _, err := c.AddShard(joiner); err != nil {
		t.Fatalf("AddShard (cutover succeeds, cleanup fails): %v", err)
	}
	if _, pending := c.MigrationStatus(); pending != 1 {
		t.Fatalf("pending removals = %d, want 1", pending)
	}

	// Aggregates would double-count the un-removed users; they must refuse.
	if _, err := c.Report(context.Background(), "mover", camp); !errors.Is(err, cluster.ErrReshardIncomplete) {
		t.Fatalf("Report with pending removal: %v, want ErrReshardIncomplete", err)
	}
	if _, err := c.PotentialReach(context.Background(), "mover", audience.Spec{}); !errors.Is(err, cluster.ErrReshardIncomplete) {
		t.Fatalf("PotentialReach with pending removal: %v, want ErrReshardIncomplete", err)
	}
	// So does the next membership change.
	if _, err := c.AddShard(openElasticShard(t, filepath.Join(root, "join2"), 1000)); !errors.Is(err, cluster.ErrReshardIncomplete) {
		t.Fatalf("AddShard with pending removal: %v, want ErrReshardIncomplete", err)
	}
	// User-scoped traffic keeps flowing the whole time.
	if _, err := c.BrowseFeed(users[0], 2); err != nil {
		t.Fatalf("BrowseFeed with pending removal: %v", err)
	}

	// Retry while the source is still down: the removal stays parked.
	if err := c.ResumeReshard(); err == nil {
		t.Fatal("ResumeReshard should fail while the source still refuses")
	}

	src.fail.Store(false)
	if err := c.ResumeReshard(); err != nil {
		t.Fatalf("ResumeReshard: %v", err)
	}
	if _, pending := c.MigrationStatus(); pending != 0 {
		t.Fatal("removal still pending after ResumeReshard")
	}
	if _, err := c.Report(context.Background(), "mover", camp); err != nil {
		t.Fatalf("Report after ResumeReshard: %v", err)
	}
	placement(t, c, []*platform.Journaled{src.Journaled, joiner}, users)
}

// staleOnceShard refuses the first BrowseFeed with the wire stale-ring
// error, the way a gated shard node answers a router holding an old ring.
type staleOnceShard struct {
	cluster.Shard
	refused atomic.Bool
}

func (s *staleOnceShard) BrowseFeedCtx(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	if s.refused.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("peer refused: %w", rpc.ErrStaleRing)
	}
	return s.Shard.BrowseFeedCtx(ctx, uid, slots)
}

type fakeSource struct {
	m       cluster.Membership
	err     error
	fetches atomic.Int32
}

func (f *fakeSource) Fetch() (cluster.Membership, error) {
	f.fetches.Add(1)
	return f.m, f.err
}

func TestStaleRingRefreshRetriesOnce(t *testing.T) {
	inner := platform.New(platform.Config{Seed: 3})
	shard := &staleOnceShard{Shard: inner}
	c, err := cluster.New([]cluster.Shard{shard}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr := profile.New("stale-user")
	pr.Nation = "US"
	pr.AgeYrs = 30
	if err := c.AddUser(pr); err != nil {
		t.Fatal(err)
	}

	// Without a membership source the refusal is surfaced, not retried.
	if _, err := c.BrowseFeed(pr.ID, 2); err == nil {
		t.Fatal("stale refusal with no membership source should error")
	}
	shard.refused.Store(false)

	// With a source: refresh, install the newer membership, retry, succeed.
	src := &fakeSource{m: cluster.Membership{Version: 2, Shards: []*cluster.ReplicaSet{cluster.NewReplicaSet(shard)}}}
	c.SetMembershipSource(src)
	if _, err := c.BrowseFeed(pr.ID, 2); err != nil {
		t.Fatalf("BrowseFeed after refresh: %v", err)
	}
	if n := src.fetches.Load(); n != 1 {
		t.Fatalf("membership fetched %d times, want 1", n)
	}
	if c.Version() != 2 {
		t.Fatalf("Version() = %d after refresh, want 2", c.Version())
	}
	// No second fetch for healthy traffic.
	if _, err := c.BrowseFeed(pr.ID, 2); err != nil {
		t.Fatal(err)
	}
	if n := src.fetches.Load(); n != 1 {
		t.Fatalf("healthy traffic re-fetched membership (%d fetches)", n)
	}
}

func TestGateOwnershipAndMonotonicPushes(t *testing.T) {
	ri := rpc.RingInfo{
		Version:      1,
		VirtualNodes: 0,
		Shards: []rpc.ShardInfo{
			{Addr: "http://a:1"},
			{Addr: "http://b:1", Replicas: []string{"http://b-r:1"}},
		},
	}
	ring := cluster.NewRing(2, 0)
	var ofA, ofB string
	for i := 0; ofA == "" || ofB == ""; i++ {
		u := fmt.Sprintf("gate-user-%d", i)
		if ring.Owner(u) == 0 && ofA == "" {
			ofA = u
		}
		if ring.Owner(u) == 1 && ofB == "" {
			ofB = u
		}
	}

	// Before any push a gate knows no ring: it serves everything and
	// reports version 0.
	gateA := cluster.NewGate("http://a:1")
	if err := gateA.OwnsUser(ofB); err != nil {
		t.Fatalf("unpushed gate refuses a read: %v", err)
	}
	if err := gateA.OwnsUserWrite(ofB); err != nil {
		t.Fatalf("unpushed gate refuses a write: %v", err)
	}
	if v := gateA.Ring().Version; v != 0 {
		t.Fatalf("unpushed gate reports ring version %d, want 0", v)
	}
	if err := gateA.SetRing(ri); err != nil {
		t.Fatal(err)
	}
	if err := gateA.OwnsUser(ofA); err != nil {
		t.Fatalf("gate A refuses its own user: %v", err)
	}
	if err := gateA.OwnsUser(ofB); err == nil {
		t.Fatal("gate A accepted shard B's user")
	}

	// A replica of the owning slot serves the slot's users (failover reads).
	gateBR := cluster.NewGate("http://b-r:1")
	if err := gateBR.SetRing(ri); err != nil {
		t.Fatal(err)
	}
	if err := gateBR.OwnsUser(ofB); err != nil {
		t.Fatalf("replica gate refuses its slot's user: %v", err)
	}
	if err := gateBR.OwnsUser(ofA); err == nil {
		t.Fatal("replica gate accepted another slot's user")
	}

	// Pushes: version 0 and empty memberships refused, equal version
	// idempotent, lower version refused, higher accepted.
	if err := cluster.NewGate("http://a:1").SetRing(rpc.RingInfo{}); err == nil {
		t.Fatal("gate accepted an empty initial membership")
	}
	if err := gateA.SetRing(ri); err != nil {
		t.Fatalf("idempotent same-version push refused: %v", err)
	}
	ri2 := ri
	ri2.Version = 3
	ri2.Shards = append([]rpc.ShardInfo{{Addr: "http://c:1"}}, ri.Shards...)
	if err := gateA.SetRing(ri2); err != nil {
		t.Fatalf("newer push refused: %v", err)
	}
	if err := gateA.SetRing(ri); err == nil {
		t.Fatal("gate accepted a stale (older-version) push")
	}
	if got := gateA.Ring().Version; got != 3 {
		t.Fatalf("gate holds version %d, want 3", got)
	}
}

// TestGatePushesDuringOwnershipChecks runs a node's per-request ownership
// checks against two racing pushers (a router's push and another's, say).
// Under -race: the checks take no lock, the version a reader sees never
// moves backwards, every ring it reads is one that was pushed whole (ring
// v has 1 + v%3 slots), and the older of two racing pushes is refused.
func TestGatePushesDuringOwnershipChecks(t *testing.T) {
	const self, pushes = "http://a:1", 300
	ringAt := func(v uint64) rpc.RingInfo {
		shards := []rpc.ShardInfo{{Addr: self}}
		for i := uint64(1); i <= v%3; i++ {
			shards = append(shards, rpc.ShardInfo{Addr: fmt.Sprintf("http://n%d:1", i), Replicas: []string{self}})
		}
		return rpc.RingInfo{Version: v, Shards: shards}
	}
	g := cluster.NewGate(self)
	done := make(chan struct{})
	var readers, pushers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				u := fmt.Sprintf("gate-user-%d", i)
				if err := g.OwnsUser(u); err != nil {
					t.Errorf("OwnsUser(%s) refused a user every ring lets this node read: %v", u, err)
					return
				}
				_ = g.OwnsUserWrite(u)
				ri := g.Ring()
				if ri.Version < last {
					t.Errorf("gate went back from ring v%d to v%d", last, ri.Version)
					return
				}
				if ri.Version > 0 && len(ri.Shards) != 1+int(ri.Version%3) {
					t.Errorf("ring v%d has %d slots, want %d: not the ring pushed as v%d", ri.Version, len(ri.Shards), 1+ri.Version%3, ri.Version)
					return
				}
				last = ri.Version
			}
		}()
	}
	for p := 0; p < 2; p++ {
		pushers.Add(1)
		go func() {
			defer pushers.Done()
			for v := uint64(1); v <= pushes; v++ {
				if err := g.SetRing(ringAt(v)); err != nil && g.Ring().Version <= v {
					t.Errorf("push of v%d refused while the gate held v%d: %v", v, g.Ring().Version, err)
				}
			}
		}()
	}
	pushers.Wait()
	close(done)
	readers.Wait()
	if v := g.Ring().Version; v != pushes {
		t.Fatalf("gate holds v%d after both pushers finished, want v%d", v, pushes)
	}
}

// TestReshardDeterministic runs the identical populate + AddShard sequence
// twice from the same seed and requires byte-identical shard states — the
// property the chaos harness leans on when it compares a faulted reshard
// run against a clean one.
func TestReshardDeterministic(t *testing.T) {
	run := func() []string {
		c, jps, root := newElasticCluster(t, 2, 61)
		populateElastic(t, c, 32)
		joiner := openElasticShard(t, filepath.Join(root, "join"), 999)
		if _, err := c.AddShard(joiner); err != nil {
			t.Fatalf("AddShard: %v", err)
		}
		var out []string
		for _, jp := range append(jps, joiner) {
			st, _, err := jp.StateAndLSN(false)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%+v", st))
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical reshard runs produced different shard states")
	}
}
