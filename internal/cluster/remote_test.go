package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path"
	"sync"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/shardnode"
	"github.com/treads-project/treads/internal/stats"
)

// newNetworkedCluster boots n platform shards, each a shard node on a
// loopback HTTP listener, and assembles a Cluster over
// RemoteShards talking to them — the full wire path the multi-node
// deployment runs, minus only the process boundary.
func newNetworkedCluster(t *testing.T, n int, seed uint64, secret string) *cluster.Cluster {
	t.Helper()
	shards := make([]cluster.Shard, n)
	for i := 0; i < n; i++ {
		_, url := serveNode(t, platform.New(platform.Config{Seed: stats.SubSeed(seed, uint64(i))}), secret)
		rs := cluster.NewRemoteShard(rpc.NewClient(url, rpc.Options{Secret: secret}))
		t.Cleanup(func() { rs.Close() })
		shards[i] = rs
	}
	c, err := cluster.New(shards, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRemoteClusterEquivalence is the networked acceptance test: a 3-node
// cluster reached over the shard RPC transport must be byte-identical to
// the in-process 3-shard cluster on the same seed — same campaign IDs,
// feeds, reveal sets, reports, and reach. Any wire-marshalling loss (a
// dropped field, a float detour, a reordered slice) fails here.
func TestRemoteClusterEquivalence(t *testing.T) {
	local, err := cluster.NewInMemory(3, platform.Config{Seed: scenarioSeed}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	remote := newNetworkedCluster(t, 3, scenarioSeed, "equivalence-secret")

	wantRes := runScenario(t, local)
	gotRes := runScenario(t, remote)
	assertEquivalent(t, local, wantRes, remote, gotRes)
}

// newFlakyCluster builds a three-shard cluster over frailShards, whose kill
// switches make routing decisions observable, with an advertiser "acme"
// and one user per shard, keyed by owning shard.
func newFlakyCluster(t *testing.T) (*cluster.Cluster, []*frailShard, map[int]profile.UserID) {
	t.Helper()
	const nShards = 3
	ps := make([]*platform.Platform, nShards)
	for i := range ps {
		ps[i] = platform.New(platform.Config{Seed: stats.SubSeed(scenarioSeed, uint64(i))})
	}
	flakies := memNodes(t, ps...)
	shards := make([]cluster.Shard, nShards)
	for i, f := range flakies {
		shards[i] = f
	}
	c, err := cluster.New(shards, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Seed state while everything is up: an advertiser and one user per
	// shard (found by ring ownership).
	if err := c.RegisterAdvertiser("acme"); err != nil {
		t.Fatal(err)
	}
	ownedBy := make(map[int]profile.UserID)
	for i := 0; len(ownedBy) < nShards; i++ {
		uid := profile.UserID(fmt.Sprintf("user-%06d", i))
		if _, taken := ownedBy[c.Owner(uid)]; !taken {
			ownedBy[c.Owner(uid)] = uid
		}
	}
	for _, uid := range ownedBy {
		pr := profile.New(uid)
		pr.SetCountry("US")
		pr.AgeYrs = 33
		if err := c.AddUser(pr); err != nil {
			t.Fatal(err)
		}
	}
	return c, flakies, ownedBy
}

// TestUnhealthyShardRouting pins the cluster's failover policy: catalog
// reads, which the cluster answers itself, are unaffected by a circuit-open
// shard, while
// operations that NEED the dead shard — user ops it owns, exact
// scatter-gather, ordered replication — surface ErrShardUnavailable
// instead of silently wrong answers.
func TestUnhealthyShardRouting(t *testing.T) {
	c, flakies, ownedBy := newFlakyCluster(t)

	// Take shard 0 down.
	flakies[0].down.Store(true)

	// Catalog reads never reach a shard, so the dead one cannot fail them.
	if cat := c.Catalog(); cat == nil {
		t.Fatal("Catalog returned nil with a shard down")
	}
	if res := c.SearchAttributes("interest"); res == nil {
		t.Fatal("SearchAttributes returned nil with a shard down")
	}

	// A user op owned by the dead shard is refused with the typed error —
	// there is no replica to fail over to.
	deadUID := ownedBy[0]
	if _, err := c.BrowseFeed(deadUID, 5); !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("BrowseFeed(owned by dead shard) err = %v, want ErrShardUnavailable", err)
	}
	if _, err := c.AdPreferences(deadUID); !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("AdPreferences err = %v, want ErrShardUnavailable", err)
	}
	// A user on a healthy shard is unaffected.
	liveUID := ownedBy[1]
	if _, err := c.BrowseFeed(liveUID, 5); err != nil {
		t.Fatalf("BrowseFeed on a healthy shard failed: %v", err)
	}

	// Exact scatter-gather refuses rather than reporting a partial sum.
	partner := booleanAttrs(c.Catalog().BySource(attr.SourcePartner))
	reachSpec := audience.Spec{Expr: attr.MustParse(fmt.Sprintf("attr(%s)", partner[0].ID))}
	if _, err := c.PotentialReach(context.Background(), "acme", reachSpec); !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("PotentialReach err = %v, want ErrShardUnavailable", err)
	}

	// Replicated writes refuse rather than desyncing the dead shard's
	// deterministic ID counters.
	if _, err := c.IssuePixel("acme"); !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Fatalf("IssuePixel err = %v, want ErrShardUnavailable", err)
	}

	// Recovery: the shard comes back and everything flows again.
	flakies[0].down.Store(false)
	if _, err := c.BrowseFeed(deadUID, 5); err != nil {
		t.Fatalf("BrowseFeed after recovery: %v", err)
	}
	if _, err := c.IssuePixel("acme"); err != nil {
		t.Fatalf("IssuePixel after recovery: %v", err)
	}
}

// TestRemoteShardTypedErrors pins the error taxonomy as seen THROUGH a
// RemoteShard: each transport failure mode surfaces its own sentinel, so
// operators (and the router's logs) can tell configuration rot from
// network weather from a genuinely down peer.
func TestRemoteShardTypedErrors(t *testing.T) {
	t.Run("auth", func(t *testing.T) {
		_, url := serveNode(t, platform.New(platform.Config{Seed: 1}), "right-secret")
		rs := cluster.NewRemoteShard(rpc.NewClient(url, rpc.Options{Secret: "wrong-secret"}))
		defer rs.Close()
		if _, err := rs.AdPreferences("user-000001"); !errors.Is(err, rpc.ErrAuth) {
			t.Fatalf("err = %v, want ErrAuth", err)
		}
	})
	t.Run("malformed", func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, "<html>definitely not the rpc protocol</html>")
		}))
		defer srv.Close()
		rs := cluster.NewRemoteShard(rpc.NewClient(srv.URL, rpc.Options{MaxRetries: -1}))
		defer rs.Close()
		if _, err := rs.AdPreferences("user-000001"); !errors.Is(err, rpc.ErrMalformed) {
			t.Fatalf("err = %v, want ErrMalformed", err)
		}
	})
	t.Run("timeout", func(t *testing.T) {
		block := make(chan struct{})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-block:
			case <-r.Context().Done():
			}
		}))
		defer srv.Close()
		defer close(block) // LIFO: release the handler before srv.Close waits on it
		rs := cluster.NewRemoteShard(rpc.NewClient(srv.URL, rpc.Options{
			CallTimeout: 25 * time.Millisecond, MaxRetries: -1,
		}))
		defer rs.Close()
		if _, err := rs.AdPreferences("user-000001"); !errors.Is(err, rpc.ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
	})
	t.Run("drop", func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("no hijacking support")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			fmt.Fprint(conn, "HTTP/1.1 200 OK\r\nContent-Length: 500\r\n\r\n{\"attr")
			conn.Close()
		}))
		defer srv.Close()
		rs := cluster.NewRemoteShard(rpc.NewClient(srv.URL, rpc.Options{MaxRetries: -1}))
		defer rs.Close()
		if _, err := rs.AdPreferences("user-000001"); !errors.Is(err, rpc.ErrUnavailable) {
			t.Fatalf("err = %v, want ErrUnavailable", err)
		}
	})
	t.Run("circuit-feeds-cluster-health", func(t *testing.T) {
		// A RemoteShard whose peer is dead trips its breaker, and the
		// cluster sees that through Healthy: the typed cluster error
		// appears without waiting out another transport timeout.
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "dead", http.StatusInternalServerError)
		}))
		defer srv.Close()
		rs := cluster.NewRemoteShard(rpc.NewClient(srv.URL, rpc.Options{
			MaxRetries: -1, FailureThreshold: 2, CircuitCooldown: time.Minute,
		}))
		defer rs.Close()
		for i := 0; i < 2; i++ {
			if _, err := rs.AdPreferences("user-000001"); err == nil {
				t.Fatal("call against a dead peer succeeded")
			}
		}
		if rs.Healthy() {
			t.Fatal("RemoteShard still Healthy after the breaker opened")
		}
	})
}

// sentRequest is one request a shard server received: the op it named and
// the status it answered.
type sentRequest struct {
	op     string
	status int
}

// requestLog records every request that reaches a handler, under its lock.
type requestLog struct {
	mu   sync.Mutex
	reqs []*sentRequest
}

func (l *requestLog) take() []sentRequest {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]sentRequest, len(l.reqs))
	for i, r := range l.reqs {
		out[i] = *r
	}
	l.reqs = nil
	return out
}

// statusWriter notes the status a handler writes into its request's entry.
type statusWriter struct {
	http.ResponseWriter
	log *requestLog
	req *sentRequest
}

func (w statusWriter) WriteHeader(status int) {
	w.log.mu.Lock()
	w.req.status = status
	w.log.mu.Unlock()
	w.ResponseWriter.WriteHeader(status)
}

// TestRemoteShardSendsItsOwnRow: RemoteShard is the one typed client of the
// shard wire, so each of its methods — and RemoteMembershipSource.Fetch —
// sends exactly one request, naming the method's own row of rpc's op
// table. Together they name all 33 rows, and a real server serves every
// one of them (no 404 for an unknown op). The health probes behind
// FollowStatus and Probe are not rows.
func TestRemoteShardSendsItsOwnRow(t *testing.T) {
	const self = "row-test"
	sn, err := shardnode.New(openElasticShard(t, t.TempDir(), 1), shardnode.Config{Advertise: self})
	if err != nil {
		t.Fatal(err)
	}
	log := &requestLog{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := &sentRequest{op: path.Base(r.URL.Path)}
		log.mu.Lock()
		log.reqs = append(log.reqs, req)
		log.mu.Unlock()
		sn.Handler().ServeHTTP(statusWriter{ResponseWriter: w, log: log, req: req}, r)
	}))
	defer hs.Close()
	rs := cluster.NewRemoteShard(rpc.NewClient(hs.URL, rpc.Options{MaxRetries: -1}))
	defer rs.Close()
	src := &cluster.RemoteMembershipSource{
		Seeds: []*rpc.Client{rs.Client()},
		Dial:  func(rpc.ShardInfo) *cluster.ReplicaSet { return cluster.NewReplicaSet(rs) },
	}

	// What each call answers is not checked here (many are refusals), only
	// the requests it sends.
	ctx := context.Background()
	const u profile.UserID = "user-000000"
	calls := []struct {
		row  string
		call func()
	}{
		{rpc.OpAddUser.Name, func() { rs.AddUser(profile.New(u)) }},
		{rpc.OpUser.Name, func() { rs.User(u) }},
		{rpc.OpUsers.Name, func() { rs.Users() }},
		{rpc.OpUsers.Name, func() { rs.ListUsers() }},
		{rpc.OpBrowse.Name, func() { rs.BrowseFeedCtx(ctx, u, 1) }},
		{rpc.OpFeed.Name, func() { rs.FeedCtx(ctx, u) }},
		{rpc.OpVisit.Name, func() { rs.VisitPage(u, "px-000001") }},
		{rpc.OpLike.Name, func() { rs.LikePage(u, "page-x") }},
		{rpc.OpAdPreferences.Name, func() { rs.AdPreferences(u) }},
		{rpc.OpAdvertisers.Name, func() { rs.AdvertisersTargetingMe(u) }},
		{rpc.OpExplain.Name, func() { rs.ExplainImpression(u, ad.Impression{}) }},
		{rpc.OpRegister.Name, func() { rs.RegisterAdvertiser("adv") }},
		{rpc.OpCreateCampaign.Name, func() { rs.CreateCampaign("adv", platform.CampaignParams{}) }},
		{rpc.OpPauseCampaign.Name, func() { rs.PauseCampaign("adv", "camp-000001") }},
		{rpc.OpCreateAudience[audience.KindPII].Name, func() { rs.CreateAudience("adv", audience.Def{Kind: audience.KindPII, Name: "a"}) }},
		{rpc.OpCreateAudience[audience.KindWebsite].Name, func() {
			rs.CreateAudience("adv", audience.Def{Kind: audience.KindWebsite, Name: "a", Pixel: "px-000001"})
		}},
		{rpc.OpCreateAudience[audience.KindEngagement].Name, func() {
			rs.CreateAudience("adv", audience.Def{Kind: audience.KindEngagement, Name: "a", Page: "page-x"})
		}},
		{rpc.OpCreateAudience[audience.KindAffinity].Name, func() {
			rs.CreateAudience("adv", audience.Def{Kind: audience.KindAffinity, Name: "a", Phrases: []string{"jazz"}})
		}},
		{rpc.OpCreateAudience[audience.KindLookalike].Name, func() {
			rs.CreateAudience("adv", audience.Def{Kind: audience.KindLookalike, Name: "a", Seed: "aud-000001", Overlap: 0.5})
		}},
		{rpc.OpIssuePixel.Name, func() { rs.IssuePixel("adv") }},
		{rpc.OpRawReach.Name, func() { rs.RawReach(ctx, "adv", audience.Spec{}) }},
		{rpc.OpCampaignTotals.Name, func() { rs.CampaignTotals(ctx, "adv", "camp-000001") }},
		{rpc.OpTraceSpans.Name, func() { rs.TraceSpans(ctx) }},
		{rpc.OpExportUsers.Name, func() { rs.ExportUsers([]profile.UserID{u}) }},
		{rpc.OpImportUsers.Name, func() { rs.ImportUsers(platform.MigrationChunk{}) }},
		{rpc.OpRemoveUsers.Name, func() { rs.RemoveUsers([]profile.UserID{u}) }},
		{rpc.OpSyncState.Name, func() { rs.StateAndLSN(true) }},
		{rpc.OpInstallState.Name, func() { rs.InstallState(platform.State{}) }},
		{rpc.OpBeginFollow.Name, func() { rs.BeginFollow(0) }},
		{rpc.OpShipOp.Name, func() { rs.ApplyShipped(1, []byte(`{}`)) }},
		{rpc.OpEndFollow.Name, func() { rs.EndFollow() }},
		{rpc.OpRearm.Name, func() { rs.Rearm(ctx, nil) }},
		{rpc.OpSetRing.Name, func() { rs.PushRing(ctx, rpc.RingInfo{Version: 1, Shards: []rpc.ShardInfo{{Addr: self}}}) }},
		{rpc.OpRing.Name, func() { src.Fetch() }},
	}
	rows := map[string]bool{}
	for _, c := range calls {
		c.call()
		got := log.take()
		switch {
		case len(got) != 1 || got[0].op != c.row:
			t.Errorf("the call for row %q sent %+v, want exactly one request naming it", c.row, got)
		case got[0].status == http.StatusNotFound:
			t.Errorf("row %q answered 404: the server does not serve it", c.row)
		default:
			rows[c.row] = true
		}
	}
	if len(rows) != 33 {
		t.Fatalf("the calls sent %d distinct rows, want all 33 of the op table", len(rows))
	}
}
