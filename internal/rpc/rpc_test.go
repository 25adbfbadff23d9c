package rpc_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/delivery"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
)

// newShardPair boots a platform behind an RPC server and returns a client
// wired to it. opts.Secret etc. may be overridden by the caller before use.
func newShardPair(t *testing.T, secret string, opts rpc.Options) (*platform.Platform, *rpc.Client) {
	t.Helper()
	p := platform.New(platform.Config{Seed: 1})
	srv := httptest.NewServer(rpc.NewServer(p, secret, nil))
	t.Cleanup(srv.Close)
	opts.Secret = secret
	c := rpc.NewClient(srv.URL, opts)
	t.Cleanup(c.Close)
	return p, c
}

func addTestUsers(t *testing.T, p *platform.Platform, n int) []profile.UserID {
	t.Helper()
	partner := p.Catalog().BySource(attr.SourcePartner)
	ids := make([]profile.UserID, n)
	for i := 0; i < n; i++ {
		pr := profile.New(profile.UserID(fmt.Sprintf("user-%06d", i)))
		pr.Nation = "US"
		pr.AgeYrs = 21 + i
		for j, a := range partner {
			if a.Kind != attr.Categorical && (i+j)%2 == 0 {
				pr.SetAttr(a.ID)
			}
		}
		if err := p.AddUser(pr); err != nil {
			t.Fatal(err)
		}
		ids[i] = pr.ID
	}
	return ids
}

// users sends the users op: the read the transport tests below probe with.
func users(c *rpc.Client) error {
	_, err := rpc.Do(context.Background(), c, rpc.OpUsers, struct{}{})
	return err
}

// TestRoundTrip drives the full operation surface over the wire and checks
// the answers match what the backend reports directly.
func TestRoundTrip(t *testing.T) {
	ctx := context.Background()
	p, c := newShardPair(t, "hunter2", rpc.Options{})
	const uid = "user-000042"
	who := rpc.UserIDReq{UserID: uid}

	// User-scoped surface.
	pr := profile.New(uid)
	pr.Nation = "US"
	pr.AgeYrs = 30
	pr.SetAttr(p.Catalog().BySource(attr.SourcePartner)[0].ID)
	if _, err := rpc.Do(ctx, c, rpc.OpAddUser, rpc.AddUserReq{Profile: pr.Snapshot()}); err != nil {
		t.Fatalf("AddUser: %v", err)
	}
	got, err := rpc.Do(ctx, c, rpc.OpUser, who)
	if err != nil {
		t.Fatalf("User: %v", err)
	}
	if got.Profile == nil {
		t.Fatal("User answered no profile for a known user")
	}
	if back, err := profile.FromState(*got.Profile); err != nil || !reflect.DeepEqual(back.Snapshot(), p.User(uid).Snapshot()) {
		t.Fatalf("round-tripped profile diverged from backend's (%v)", err)
	}
	if ghost, err := rpc.Do(ctx, c, rpc.OpUser, rpc.UserIDReq{UserID: "nope"}); err != nil || ghost.Profile != nil {
		t.Fatalf("unknown user = (%v, %v), want (nil, nil)", ghost.Profile, err)
	}
	all, err := rpc.Do(ctx, c, rpc.OpUsers, struct{}{})
	if err != nil || !reflect.DeepEqual(all.Users, []string{uid}) {
		t.Fatalf("Users = (%v, %v)", all.Users, err)
	}

	// Advertiser surface: campaign against an affinity audience, browse,
	// then the aggregate reads.
	if _, err := rpc.Do(ctx, c, rpc.OpRegister, rpc.RegisterReq{Name: "acme"}); err != nil {
		t.Fatalf("RegisterAdvertiser: %v", err)
	}
	px, err := rpc.Do(ctx, c, rpc.OpIssuePixel, rpc.AdvertiserReq{Advertiser: "acme"})
	if err != nil || px.PixelID == "" {
		t.Fatalf("IssuePixel = (%q, %v)", px.PixelID, err)
	}
	if err := c.VisitPage(ctx, uid, pixel.PixelID(px.PixelID)); err != nil {
		t.Fatalf("VisitPage: %v", err)
	}
	aud, err := rpc.Do(ctx, c, rpc.OpCreateWebsiteAudience, rpc.CreateWebsiteAudienceReq{Advertiser: "acme", Name: "visitors", PixelID: px.PixelID})
	if err != nil || aud.AudienceID == "" {
		t.Fatalf("CreateWebsiteAudience = (%q, %v)", aud.AudienceID, err)
	}
	spec := audience.Spec{Include: []audience.AudienceID{audience.AudienceID(aud.AudienceID)}}
	camp, err := c.CreateCampaign(ctx, "acme", platform.CampaignParams{
		Spec:      spec,
		BidCapCPM: money.FromDollars(4),
		Creative:  ad.Creative{Headline: "h", Body: "b"},
	})
	if err != nil || camp == "" {
		t.Fatalf("CreateCampaign = (%q, %v)", camp, err)
	}
	browse, err := rpc.Do(ctx, c, rpc.OpBrowse, rpc.BrowseReq{UserID: uid, Slots: 5})
	if err != nil {
		t.Fatalf("BrowseFeed: %v", err)
	}
	imps := rpc.ToImpressions(browse.Impressions)
	if want := p.Feed(uid); !reflect.DeepEqual(imps, want) {
		t.Fatalf("BrowseFeed returned %d imps, backend feed has %d (diverged)", len(imps), len(want))
	}
	feed, err := rpc.Do(ctx, c, rpc.OpFeed, who)
	if err != nil || !reflect.DeepEqual(rpc.ToImpressions(feed.Impressions), p.Feed(uid)) {
		t.Fatalf("Feed diverged: %v", err)
	}
	n, err := rpc.Do(ctx, c, rpc.OpRawReach, rpc.RawReachReq{Advertiser: "acme", Spec: rpc.FromSpec(spec)})
	if err != nil {
		t.Fatalf("RawReach: %v", err)
	}
	wantN, _ := p.RawReach(ctx, "acme", spec)
	if n.Count != wantN {
		t.Fatalf("RawReach = %d, backend says %d", n.Count, wantN)
	}
	totals, err := rpc.Do(ctx, c, rpc.OpCampaignTotals, rpc.CampaignReq{Advertiser: "acme", CampaignID: camp})
	if err != nil {
		t.Fatalf("CampaignTotals: %v", err)
	}
	wantTotals, _ := p.CampaignTotals(ctx, "acme", camp)
	if totals.ToTotals() != wantTotals {
		t.Fatalf("CampaignTotals = %+v, backend says %+v", totals.ToTotals(), wantTotals)
	}

	// Transparency surface.
	if _, err := c.AdPreferences(ctx, uid); err != nil {
		t.Fatalf("AdPreferences: %v", err)
	}
	if _, err := rpc.Do(ctx, c, rpc.OpAdvertisers, who); err != nil {
		t.Fatalf("AdvertisersTargetingMe: %v", err)
	}
	if len(imps) > 0 {
		ex, err := rpc.Do(ctx, c, rpc.OpExplain, rpc.ExplainReq{UserID: uid, Impression: httpapi.FromImpression(imps[0])})
		if err != nil || ex.Text == "" {
			t.Fatalf("ExplainImpression = (%+v, %v)", ex, err)
		}
	}

	// Health.
	h, err := c.Health(ctx)
	if err != nil || !h.OK || h.Users != 1 {
		t.Fatalf("Health = (%+v, %v)", h, err)
	}
	if !c.Healthy() {
		t.Fatal("client not Healthy after successful calls")
	}
}

// TestAuthFailure pins the typed error for a wrong shared secret — and
// that it is never retried (auth is config, not weather).
func TestAuthFailure(t *testing.T) {
	p := platform.New(platform.Config{Seed: 1})
	srv := httptest.NewServer(rpc.NewServer(p, "right", nil))
	defer srv.Close()
	c := rpc.NewClient(srv.URL, rpc.Options{Secret: "wrong"})
	defer c.Close()

	err := users(c)
	if !errors.Is(err, rpc.ErrAuth) {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
	var ce *rpc.CallError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T is not *CallError", err)
	}
	if ce.Status != http.StatusUnauthorized || ce.Attempts != 1 {
		t.Fatalf("CallError = %+v, want status 401 after 1 attempt", ce)
	}
}

// TestRemoteError pins application refusals: the shard's own error text
// crosses the wire as *RemoteError, distinct from every transport error.
func TestRemoteError(t *testing.T) {
	_, c := newShardPair(t, "", rpc.Options{})
	_, err := c.CreateCampaign(context.Background(), "ghost", platform.CampaignParams{})
	var re *rpc.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *RemoteError", err, err)
	}
	if re.Msg == "" {
		t.Fatal("RemoteError lost the shard's message")
	}
	if errors.Is(err, rpc.ErrUnavailable) || errors.Is(err, rpc.ErrMalformed) {
		t.Fatal("application refusal classified as a transport error")
	}
}

// TestBrowseSlotsBoundedAtTheShard: the shard port takes slots from the
// request body, and a journaled shard applies a browse under its op lock
// (and again on every replay), so an absurd count must come back as the
// platform's refusal without running — and the shard must serve the next
// browse, live and after recovering from the journal that holds the refusal.
func TestBrowseSlotsBoundedAtTheShard(t *testing.T) {
	dir := t.TempDir()
	opts := journal.Options{NoSync: true}
	jp, err := platform.OpenJournaled(dir, opts, func() (*platform.Platform, error) {
		p := platform.New(platform.Config{Seed: 1})
		addTestUsers(t, p, 1)
		return p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jp.RegisterAdvertiser("adv"); err != nil {
		t.Fatal(err)
	}
	if _, err := jp.CreateCampaign("adv", platform.CampaignParams{
		BidCapCPM: money.FromDollars(1000),
		Creative:  ad.Creative{Headline: "h", Body: "b"},
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rpc.NewServer(jp, "", nil))
	defer srv.Close()
	c := rpc.NewClient(srv.URL, rpc.Options{})
	defer c.Close()

	ctx := context.Background()
	const uid = "user-000000"
	for _, slots := range []int{1_000_000_000, delivery.MaxSlots + 1, -1} {
		_, err := rpc.Do(ctx, c, rpc.OpBrowse, rpc.BrowseReq{UserID: uid, Slots: slots})
		var re *rpc.RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("browse with %d slots: err = %v, want the shard's refusal", slots, err)
		}
	}
	resp, err := rpc.Do(ctx, c, rpc.OpBrowse, rpc.BrowseReq{UserID: uid, Slots: 1})
	if err != nil || len(resp.Impressions) != 1 {
		t.Fatalf("browse after the refusals: %d impressions, err %v", len(resp.Impressions), err)
	}
	before := jp.State()
	if err := jp.Close(); err != nil {
		t.Fatal(err)
	}
	jp2, err := platform.OpenJournaled(dir, opts, func() (*platform.Platform, error) {
		return nil, errors.New("boot called on an existing journal")
	})
	if err != nil {
		t.Fatalf("recovering a journal that holds refused browses: %v", err)
	}
	defer jp2.Close()
	if !reflect.DeepEqual(jp2.State(), before) {
		t.Fatal("recovered state differs from the state before the restart")
	}
}

// TestUnknownOpIsMalformed: a 404 for an op name means the peers disagree
// about the protocol — ErrMalformed, not a retryable failure.
func TestUnknownOpIsMalformed(t *testing.T) {
	_, c := newShardPair(t, "", rpc.Options{})
	err := c.Call(context.Background(), "nosuchop", true, nil, nil)
	if !errors.Is(err, rpc.ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

// TestMalformedResponse: a 200 whose body is not the expected JSON is
// ErrMalformed.
func TestMalformedResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "this is not json{{{")
	}))
	defer srv.Close()
	c := rpc.NewClient(srv.URL, rpc.Options{MaxRetries: -1})
	defer c.Close()
	err := users(c)
	if !errors.Is(err, rpc.ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

// TestTimeout: a peer that answers slower than the call timeout yields
// ErrTimeout.
func TestTimeout(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(block) // LIFO: release the handler before srv.Close waits on it
	c := rpc.NewClient(srv.URL, rpc.Options{CallTimeout: 30 * time.Millisecond, MaxRetries: -1})
	defer c.Close()
	err := users(c)
	if !errors.Is(err, rpc.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestMidStreamDrop: a connection that dies after the status line but
// before the body completes is ErrUnavailable — the op may or may not have
// applied, so it must not look like a clean protocol error.
func TestMidStreamDrop(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("test server does not support hijacking")
			return
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		// Promise 1000 bytes, deliver a few, slam the connection.
		fmt.Fprint(conn, "HTTP/1.1 200 OK\r\nContent-Length: 1000\r\nContent-Type: application/json\r\n\r\n{\"users\":")
		conn.Close()
	}))
	defer srv.Close()
	c := rpc.NewClient(srv.URL, rpc.Options{MaxRetries: -1})
	defer c.Close()
	err := users(c)
	if !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

// TestIdempotentRetriesServerErrors: reads retry through transient 5xx and
// succeed; the CallError bookkeeping never surfaces on success.
func TestIdempotentRetriesServerErrors(t *testing.T) {
	var calls atomic.Int32
	p := platform.New(platform.Config{Seed: 1})
	inner := rpc.NewServer(p, "", nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := rpc.NewClient(srv.URL, rpc.Options{MaxRetries: 3, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond})
	defer c.Close()
	if err := users(c); err != nil {
		t.Fatalf("read did not survive transient 5xx: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 failures + 1 success)", calls.Load())
	}
}

// TestMutationNotRetriedAfterSend: a mutation whose request reached the
// peer is never re-sent — re-executing it could double-apply.
func TestMutationNotRetriedAfterSend(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := rpc.NewClient(srv.URL, rpc.Options{MaxRetries: 3, BackoffBase: time.Millisecond})
	defer c.Close()
	_, err := rpc.Do(context.Background(), c, rpc.OpRegister, rpc.RegisterReq{Name: "acme"})
	if !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("mutation hit the server %d times, want exactly 1", calls.Load())
	}
}

// TestMutationRetriedOnDialFailure: connection refused proves the request
// never left, so even a mutation retries.
func TestMutationRetriedOnDialFailure(t *testing.T) {
	// Grab a port nothing listens on.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	c := rpc.NewClient("http://"+addr, rpc.Options{
		MaxRetries: 2, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		CallTimeout: 200 * time.Millisecond,
	})
	defer c.Close()
	_, err = rpc.Do(context.Background(), c, rpc.OpRegister, rpc.RegisterReq{Name: "acme"})
	if !errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	var ce *rpc.CallError
	if !errors.As(err, &ce) {
		t.Fatalf("err %T is not *CallError", err)
	}
	if ce.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3 (dial failures are provably unsent, so mutations retry)", ce.Attempts)
	}
}

// TestCircuitBreaker: consecutive failures open the breaker (fast typed
// failure, no network traffic), and a half-open probe after the cooldown
// closes it again once the peer recovers.
func TestCircuitBreaker(t *testing.T) {
	var calls atomic.Int32
	var broken atomic.Bool
	broken.Store(true)
	p := platform.New(platform.Config{Seed: 1})
	inner := rpc.NewServer(p, "", nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if broken.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := rpc.NewClient(srv.URL, rpc.Options{
		MaxRetries:       -1,
		FailureThreshold: 2,
		CircuitCooldown:  50 * time.Millisecond,
	})
	defer c.Close()

	for i := 0; i < 2; i++ {
		if err := users(c); !errors.Is(err, rpc.ErrUnavailable) {
			t.Fatalf("call %d: err = %v, want ErrUnavailable", i, err)
		}
	}
	if c.Healthy() {
		t.Fatal("breaker still closed after hitting the failure threshold")
	}
	before := calls.Load()
	if err := users(c); !errors.Is(err, rpc.ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if calls.Load() != before {
		t.Fatal("circuit-open call still reached the peer")
	}

	// Recover the peer, wait out the cooldown: the half-open probe closes
	// the breaker.
	broken.Store(false)
	time.Sleep(60 * time.Millisecond)
	if err := users(c); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if !c.Healthy() {
		t.Fatal("breaker did not close after a successful probe")
	}
}

// TestHedgedRead: when the primary stalls, the hedge answers and the call
// completes far sooner than the stall.
func TestHedgedRead(t *testing.T) {
	var calls atomic.Int32
	p := platform.New(platform.Config{Seed: 1})
	inner := rpc.NewServer(p, "", nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// The primary stalls (until the client cancels it).
			select {
			case <-r.Context().Done():
			case <-time.After(2 * time.Second):
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := rpc.NewClient(srv.URL, rpc.Options{
		CallTimeout: 5 * time.Second,
		HedgeDelay:  20 * time.Millisecond,
		MaxRetries:  -1,
	})
	defer c.Close()
	start := time.Now()
	if err := users(c); err != nil {
		t.Fatalf("hedged read failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedge did not rescue the call: took %v", elapsed)
	}
	if calls.Load() < 2 {
		t.Fatal("no hedge request was issued")
	}
}

// TestRequestTooLargeRejected pins the server-side length check.
func TestRequestTooLargeRejected(t *testing.T) {
	_, c := newShardPair(t, "", rpc.Options{MaxRetries: -1})
	huge := make([]string, 0, 1<<19)
	for i := 0; i < 1<<19; i++ {
		huge = append(huge, "a-reasonably-long-phrase-to-overflow-the-limit")
	}
	_, err := rpc.Do(context.Background(), c, rpc.OpCreateAffinityAudience, rpc.CreateAffinityAudienceReq{Advertiser: "acme", Name: "big", Phrases: huge})
	if !errors.Is(err, rpc.ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed (413)", err)
	}
}

// BenchmarkRPCRawReach is the transport bench smoke: one scatter-style
// aggregate read over loopback HTTP, end to end.
func BenchmarkRPCRawReach(b *testing.B) {
	p := platform.New(platform.Config{Seed: 1})
	partner := p.Catalog().BySource(attr.SourcePartner)
	for i := 0; i < 500; i++ {
		pr := profile.New(profile.UserID(fmt.Sprintf("user-%06d", i)))
		pr.Nation = "US"
		pr.AgeYrs = 21 + i%50
		if partner[0].Kind != attr.Categorical {
			pr.SetAttr(partner[0].ID)
		}
		if err := p.AddUser(pr); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.RegisterAdvertiser("acme"); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(rpc.NewServer(p, "bench-secret", nil))
	defer srv.Close()
	c := rpc.NewClient(srv.URL, rpc.Options{Secret: "bench-secret"})
	defer c.Close()
	req := rpc.RawReachReq{Advertiser: "acme", Spec: rpc.FromSpec(audience.Spec{Expr: attr.MustParse("age(18, 80)")})}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rpc.Do(ctx, c, rpc.OpRawReach, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCBrowse measures a mutation round trip (auction + wire).
func BenchmarkRPCBrowse(b *testing.B) {
	p := platform.New(platform.Config{Seed: 1})
	pr := profile.New("user-000001")
	pr.Nation = "US"
	pr.AgeYrs = 30
	if err := p.AddUser(pr); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(rpc.NewServer(p, "", nil))
	defer srv.Close()
	c := rpc.NewClient(srv.URL, rpc.Options{})
	defer c.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rpc.Do(ctx, c, rpc.OpBrowse, rpc.BrowseReq{UserID: "user-000001", Slots: 3}); err != nil {
			b.Fatal(err)
		}
	}
}
