package httpapi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// testEnv spins up an HTTP server over a deterministic platform.
func testEnv(t *testing.T, reviewAds bool) (*platform.Platform, *Client) {
	t.Helper()
	market := auction.Market{BaseCPM: money.FromDollars(2), Sigma: 0, Floor: money.FromDollars(0.1)}
	p := platform.New(platform.Config{Market: &market, Seed: 1, ReviewAds: reviewAds})
	for i := 0; i < 6; i++ {
		u := profile.New(profile.UserID(fmt.Sprintf("u%d", i)))
		u.SetCountry("US")
		u.AgeYrs = 30
		if i%2 == 0 {
			u.SetAttr("platform.music.jazz")
		}
		if i == 0 {
			u.SetPII(pii.Record{Emails: []string{"u0@example.com"}})
		}
		if err := p.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewServer(p, nil))
	t.Cleanup(srv.Close)
	return p, NewClient(srv.URL)
}

func ctx() context.Context { return context.Background() }

func TestAdvertiserLifecycleOverHTTP(t *testing.T) {
	_, c := testEnv(t, false)
	if err := c.RegisterAdvertiser(ctx(), "tp"); err != nil {
		t.Fatal(err)
	}
	// Duplicate registration is a conflict.
	err := c.RegisterAdvertiser(ctx(), "tp")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("duplicate advertiser error = %v", err)
	}

	id, err := c.CreateCampaign(ctx(), "tp", CreateCampaignRequest{
		Spec:      SpecWire{Expr: "attr(platform.music.jazz)"},
		BidCapUSD: 10,
		Creative:  CreativeWire{Headline: "h", Body: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(id, "camp-") {
		t.Fatalf("campaign id = %q", id)
	}

	// Users browse over HTTP; only matching users get the ad.
	imps, err := c.Browse(ctx(), "u0", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) == 0 || imps[0].CampaignID != id {
		t.Fatalf("u0 impressions = %v", imps)
	}
	imps, err = c.Browse(ctx(), "u1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) != 0 {
		t.Fatalf("u1 (non-matching) got %d impressions", len(imps))
	}

	// Feed and report.
	feed, err := c.Feed(ctx(), "u0")
	if err != nil || len(feed) == 0 {
		t.Fatalf("feed = %v, %v", feed, err)
	}
	rep, err := c.Report(ctx(), "tp", id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Impressions == 0 {
		t.Fatal("report shows no impressions")
	}
	if rep.SpendUSD != 0 {
		t.Fatalf("sub-threshold campaign invoiced %v", rep.SpendUSD)
	}

	// Pause stops delivery.
	if err := errOf(Call(ctx(), c, RoutePauseCampaign, Params{Name: "tp", ID: id}, empty{})); err != nil {
		t.Fatal(err)
	}
	imps, _ = c.Browse(ctx(), "u2", 3)
	if len(imps) != 0 {
		t.Fatal("paused campaign still delivering")
	}
}

func TestPixelEndpoint(t *testing.T) {
	_, c := testEnv(t, false)
	if err := c.RegisterAdvertiser(ctx(), "tp"); err != nil {
		t.Fatal(err)
	}
	px, err := c.IssuePixel(ctx(), "tp")
	if err != nil {
		t.Fatal(err)
	}
	gif, err := c.FirePixel(ctx(), px, "u1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(gif, []byte("GIF89a")) {
		t.Fatalf("pixel response is not a GIF: %x", gif[:6])
	}
	// The visit creates a targetable website audience.
	audID, err := c.CreateWebsiteAudience(ctx(), "tp", CreateWebsiteAudienceRequest{Name: "visitors", PixelID: px})
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.CreateCampaign(ctx(), "tp", CreateCampaignRequest{
		Spec:      SpecWire{Include: []string{audID}},
		BidCapUSD: 10,
		Creative:  CreativeWire{Body: "for visitors"},
	})
	if err != nil {
		t.Fatal(err)
	}
	imps, _ := c.Browse(ctx(), "u1", 2)
	if len(imps) == 0 || imps[0].CampaignID != id {
		t.Fatal("pixel visitor did not receive the audience ad")
	}
	imps, _ = c.Browse(ctx(), "u2", 2)
	if len(imps) != 0 {
		t.Fatal("non-visitor received the audience ad")
	}
	// Pixel fires need a platform session (uid).
	if _, err := c.FirePixel(ctx(), px, ""); err == nil {
		t.Error("uid-less pixel fire accepted")
	}
	if _, err := c.FirePixel(ctx(), "px-bogus", "u1"); err == nil {
		t.Error("unknown pixel accepted")
	}
	if _, err := c.FirePixel(ctx(), px, "ghost"); err == nil {
		t.Error("unknown user accepted")
	}
}

func TestPIIAudienceOverHTTP(t *testing.T) {
	_, c := testEnv(t, false)
	if err := c.RegisterAdvertiser(ctx(), "tp"); err != nil {
		t.Fatal(err)
	}
	k, _ := pii.HashEmail("u0@example.com")
	audID, err := audienceID(Call(ctx(), c, RouteCreatePIIAudience, Params{Name: "tp"}, CreatePIIAudienceRequest{
		Name: "optins",
		Keys: []MatchKeyWire{{Type: "email", Hash: k.Hash}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.CreateCampaign(ctx(), "tp", CreateCampaignRequest{
		Spec:      SpecWire{Include: []string{audID}},
		BidCapUSD: 10,
		Creative:  CreativeWire{Body: "control"},
	})
	if err != nil {
		t.Fatal(err)
	}
	imps, _ := c.Browse(ctx(), "u0", 2)
	if len(imps) == 0 || imps[0].CampaignID != id {
		t.Fatal("PII-matched user did not receive the ad")
	}
	// Bad key type rejected.
	_, err = audienceID(Call(ctx(), c, RouteCreatePIIAudience, Params{Name: "tp"}, CreatePIIAudienceRequest{
		Keys: []MatchKeyWire{{Type: "ssn", Hash: "x"}},
	}))
	if err == nil {
		t.Error("bad PII type accepted")
	}
}

func TestEngagementAndLikesOverHTTP(t *testing.T) {
	_, c := testEnv(t, false)
	c.RegisterAdvertiser(ctx(), "tp")
	if err := errOf(Call(ctx(), c, RouteLike, Params{ID: "u3"}, LikeRequest{PageID: "tp-page"})); err != nil {
		t.Fatal(err)
	}
	audID, err := c.CreateEngagementAudience(ctx(), "tp", CreateEngagementAudienceRequest{Name: "likers", PageID: "tp-page"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateCampaign(ctx(), "tp", CreateCampaignRequest{
		Spec:      SpecWire{Include: []string{audID}},
		BidCapUSD: 10,
		Creative:  CreativeWire{Body: "for likers"},
	}); err != nil {
		t.Fatal(err)
	}
	imps, _ := c.Browse(ctx(), "u3", 2)
	if len(imps) == 0 {
		t.Fatal("liker did not receive engagement ad")
	}
	if err := errOf(Call(ctx(), c, RouteLike, Params{ID: "ghost"}, LikeRequest{PageID: "p"})); err == nil {
		t.Error("unknown user like accepted")
	}
}

func TestReachOverHTTP(t *testing.T) {
	_, c := testEnv(t, false)
	c.RegisterAdvertiser(ctx(), "tp")
	// 6 users: below the reporting threshold, so reach is suppressed.
	reach, err := reachOf(Call(ctx(), c, RouteReach, Params{Name: "tp"}, ReachRequest{Spec: SpecWire{}}))
	if err != nil {
		t.Fatal(err)
	}
	if reach != 0 {
		t.Fatalf("reach = %d, want 0 (suppressed)", reach)
	}
	if _, err := reachOf(Call(ctx(), c, RouteReach, Params{Name: "tp"}, ReachRequest{Spec: SpecWire{Expr: "boom("}})); err == nil {
		t.Error("bad expression accepted")
	}
}

func TestSearchAttributesOverHTTP(t *testing.T) {
	_, c := testEnv(t, false)
	hits, err := Call(ctx(), c, RouteSearchAttributes, Params{Q: "net worth"}, empty{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 9 {
		t.Fatalf("hits = %d", len(hits))
	}
	if hits[0].Source != "partner" || hits[0].Broker == "" {
		t.Fatalf("hit = %+v", hits[0])
	}
}

func TestAdPreferencesAndExplainOverHTTP(t *testing.T) {
	p, c := testEnv(t, false)
	c.RegisterAdvertiser(ctx(), "tp")
	partner := p.Catalog().BySource(attr.SourcePartner)[0]
	p.User("u0").SetAttr(partner.ID)

	prefs, err := prefsOf(Call(ctx(), c, RouteAdPreferences, Params{ID: "u0"}, empty{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range prefs {
		if a == string(partner.ID) {
			t.Fatal("ad preferences leaked partner attribute over HTTP")
		}
	}
	if len(prefs) == 0 {
		t.Fatal("no preferences returned")
	}

	id, err := c.CreateCampaign(ctx(), "tp", CreateCampaignRequest{
		Spec:      SpecWire{Expr: "attr(platform.music.jazz)"},
		BidCapUSD: 10,
		Creative:  CreativeWire{Body: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	imps, _ := c.Browse(ctx(), "u0", 2)
	if len(imps) == 0 {
		t.Fatal("no impression to explain")
	}
	ex, err := c.Explain(ctx(), "u0", imps[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Text, "because") {
		t.Fatalf("explanation = %+v", ex)
	}
	_ = id
}

func TestPolicyRejectionStatusCode(t *testing.T) {
	_, c := testEnv(t, true)
	c.RegisterAdvertiser(ctx(), "tp")
	_, err := c.CreateCampaign(ctx(), "tp", CreateCampaignRequest{
		BidCapUSD: 10,
		Creative:  CreativeWire{Body: "You are interested in salsa according to your profile."},
	})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("policy rejection error = %v", err)
	}
}

func TestNotFoundAndBadRequests(t *testing.T) {
	_, c := testEnv(t, false)
	if _, err := c.Browse(ctx(), "ghost", 2); err == nil {
		t.Error("unknown user browse accepted")
	}
	if _, err := c.Feed(ctx(), "ghost"); err == nil {
		t.Error("unknown user feed accepted")
	}
	if _, err := prefsOf(Call(ctx(), c, RouteAdPreferences, Params{ID: "ghost"}, empty{})); err == nil {
		t.Error("unknown user preferences accepted")
	}
	if _, err := c.Report(ctx(), "tp", "camp-1"); err == nil {
		t.Error("unknown advertiser report accepted")
	}
	c.RegisterAdvertiser(ctx(), "tp")
	if _, err := c.CreateCampaign(ctx(), "tp", CreateCampaignRequest{
		Spec:      SpecWire{Expr: "attr(no.such.attr)"},
		BidCapUSD: 10,
		Creative:  CreativeWire{Body: "x"},
	}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestBrowseSlotValidation(t *testing.T) {
	p, c := testEnv(t, false)
	_ = p
	srvURL := c.BaseURL
	resp, err := http.Post(srvURL+"/api/v1/users/u0/browse?slots=abc", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad slots status = %d", resp.StatusCode)
	}
	resp, err = http.Post(srvURL+"/api/v1/users/u0/browse?slots=999999", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge slots status = %d", resp.StatusCode)
	}
}

func TestMalformedJSONRejected(t *testing.T) {
	_, c := testEnv(t, false)
	resp, err := http.Post(c.BaseURL+"/api/v1/advertisers", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON status = %d", resp.StatusCode)
	}
	// Unknown fields are rejected too.
	resp, err = http.Post(c.BaseURL+"/api/v1/advertisers", "application/json",
		strings.NewReader(`{"name":"x","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field status = %d", resp.StatusCode)
	}
}

func TestAffinityAudienceOverHTTP(t *testing.T) {
	_, c := testEnv(t, false)
	if err := c.RegisterAdvertiser(ctx(), "tp"); err != nil {
		t.Fatal(err)
	}
	audID, err := audienceID(Call(ctx(), c, RouteCreateAffinityAudience, Params{Name: "tp"}, CreateAffinityAudienceRequest{
		Name: "jazz fans", Phrases: []string{"jazz"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.CreateCampaign(ctx(), "tp", CreateCampaignRequest{
		Spec:      SpecWire{Include: []string{audID}},
		BidCapUSD: 10,
		Creative:  CreativeWire{Body: "for jazz fans"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// u0 has jazz; u1 does not.
	imps, _ := c.Browse(ctx(), "u0", 2)
	if len(imps) == 0 || imps[0].CampaignID != id {
		t.Fatal("affinity ad not delivered to matching user")
	}
	imps, _ = c.Browse(ctx(), "u1", 2)
	if len(imps) != 0 {
		t.Fatal("affinity ad delivered to non-matching user")
	}
	// Validation errors surface as 400s.
	if _, err := audienceID(Call(ctx(), c, RouteCreateAffinityAudience, Params{Name: "tp"}, CreateAffinityAudienceRequest{Name: "x"})); err == nil {
		t.Error("empty phrases accepted over HTTP")
	}
}

func TestIncludeAllOverHTTP(t *testing.T) {
	_, c := testEnv(t, false)
	c.RegisterAdvertiser(ctx(), "tp")
	jazzAud, err := audienceID(Call(ctx(), c, RouteCreateAffinityAudience, Params{Name: "tp"}, CreateAffinityAudienceRequest{
		Name: "jazz", Phrases: []string{"jazz"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := errOf(Call(ctx(), c, RouteLike, Params{ID: "u0"}, LikeRequest{PageID: "page"})); err != nil {
		t.Fatal(err)
	}
	if err := errOf(Call(ctx(), c, RouteLike, Params{ID: "u1"}, LikeRequest{PageID: "page"})); err != nil {
		t.Fatal(err)
	}
	likersAud, err := c.CreateEngagementAudience(ctx(), "tp", CreateEngagementAudienceRequest{Name: "likers", PageID: "page"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.CreateCampaign(ctx(), "tp", CreateCampaignRequest{
		Spec:      SpecWire{Include: []string{likersAud}, IncludeAll: []string{jazzAud}},
		BidCapUSD: 10,
		Creative:  CreativeWire{Body: "narrowed"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// u0 likes + jazz -> delivered; u1 likes but no jazz -> not.
	imps, _ := c.Browse(ctx(), "u0", 2)
	if len(imps) == 0 {
		t.Fatal("narrowed ad missed the intersecting user")
	}
	imps, _ = c.Browse(ctx(), "u1", 2)
	if len(imps) != 0 {
		t.Fatal("narrowed ad leaked outside the intersection")
	}
}

func TestAdvertisersTargetingMeOverHTTP(t *testing.T) {
	_, c := testEnv(t, false)
	c.RegisterAdvertiser(ctx(), "retargeter")
	px, err := c.IssuePixel(ctx(), "retargeter")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.FirePixel(ctx(), px, "u4"); err != nil {
		t.Fatal(err)
	}
	audID, err := c.CreateWebsiteAudience(ctx(), "retargeter", CreateWebsiteAudienceRequest{Name: "v", PixelID: px})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateCampaign(ctx(), "retargeter", CreateCampaignRequest{
		Spec:      SpecWire{Include: []string{audID}},
		BidCapUSD: 10,
		Creative:  CreativeWire{Body: "again"},
	}); err != nil {
		t.Fatal(err)
	}
	names, err := advertisersOf(Call(ctx(), c, RouteAdvertisersTargetingMe, Params{ID: "u4"}, empty{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "retargeter" {
		t.Fatalf("advertisers = %v", names)
	}
	names, err = advertisersOf(Call(ctx(), c, RouteAdvertisersTargetingMe, Params{ID: "u5"}, empty{}))
	if err != nil || len(names) != 0 {
		t.Fatalf("u5 advertisers = %v, %v", names, err)
	}
	if _, err := advertisersOf(Call(ctx(), c, RouteAdvertisersTargetingMe, Params{ID: "ghost"}, empty{})); err == nil {
		t.Error("unknown user accepted")
	}
}

func TestCampaignBudgetOverHTTP(t *testing.T) {
	_, c := testEnv(t, false)
	c.RegisterAdvertiser(ctx(), "tp")
	id, err := c.CreateCampaign(ctx(), "tp", CreateCampaignRequest{
		BidCapUSD: 10,
		BudgetUSD: 0.002, // exactly one $0.002 impression
		Creative:  CreativeWire{Body: "tiny budget"},
	})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 0; i < 6; i++ {
		imps, _ := c.Browse(ctx(), fmt.Sprintf("u%d", i), 1)
		delivered += len(imps)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d on a 1-impression budget", delivered)
	}
	_ = id
}

func TestLookalikeAudienceOverHTTP(t *testing.T) {
	_, c := testEnv(t, false)
	c.RegisterAdvertiser(ctx(), "tp")
	// Seed: u0 likes a page; u0 has jazz.
	if err := errOf(Call(ctx(), c, RouteLike, Params{ID: "u0"}, LikeRequest{PageID: "seed-page"})); err != nil {
		t.Fatal(err)
	}
	seedAud, err := c.CreateEngagementAudience(ctx(), "tp", CreateEngagementAudienceRequest{Name: "seed", PageID: "seed-page"})
	if err != nil {
		t.Fatal(err)
	}
	lookAud, err := audienceID(Call(ctx(), c, RouteCreateLookalikeAudience, Params{Name: "tp"}, CreateLookalikeAudienceRequest{Name: "similar", Seed: seedAud}))
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.CreateCampaign(ctx(), "tp", CreateCampaignRequest{
		Spec:      SpecWire{Include: []string{lookAud}},
		BidCapUSD: 10,
		Creative:  CreativeWire{Body: "for people like our seed"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// u2 has jazz (resembles the seed) and is not the seed member.
	imps, _ := c.Browse(ctx(), "u2", 2)
	if len(imps) == 0 || imps[0].CampaignID != id {
		t.Fatal("lookalike ad not delivered to resembling user")
	}
	// u1 has no jazz: no delivery.
	imps, _ = c.Browse(ctx(), "u1", 2)
	if len(imps) != 0 {
		t.Fatal("lookalike ad delivered to non-resembling user")
	}
	// The seed member itself is excluded.
	imps, _ = c.Browse(ctx(), "u0", 2)
	if len(imps) != 0 {
		t.Fatal("lookalike ad delivered to the seed member")
	}
	// Bad seed is a 400.
	if _, err := audienceID(Call(ctx(), c, RouteCreateLookalikeAudience, Params{Name: "tp"}, CreateLookalikeAudienceRequest{Name: "x", Seed: "aud-bogus"})); err == nil {
		t.Error("bogus seed accepted over HTTP")
	}
}

// TestTrailingDataRejected: a body is one JSON value. Data after it is a
// malformed request, refused before the platform sees the first value;
// whitespace after it (an encoder's newline) is not data.
func TestTrailingDataRejected(t *testing.T) {
	_, c := testEnv(t, false)
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(c.BaseURL+"/api/v1/advertisers", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, body := range []string{`{"name":"a"}{"name":"b"} junk`, `{"name":"a"} junk`, `{"name":"a"}}`, `{"name":"a"} 7`} {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, code)
		}
	}
	if code := post(`{"name":"a"}`); code != http.StatusCreated {
		t.Errorf("registering a after the refused bodies: status %d, want 201", code)
	}
	if code := post("{\"name\":\"b\"}\n \t\r\n"); code != http.StatusCreated {
		t.Errorf("body with trailing whitespace: status %d, want 201", code)
	}
}

// The answers' fields the tests read, each with its call's error.
func errOf[Resp any](_ Resp, err error) error                          { return err }
func audienceID(r AudienceResponse, err error) (string, error)         { return r.AudienceID, err }
func reachOf(r ReachResponse, err error) (int, error)                  { return r.Reach, err }
func prefsOf(r PreferencesResponse, err error) ([]string, error)       { return r.Attributes, err }
func advertisersOf(r AdvertisersResponse, err error) ([]string, error) { return r.Advertisers, err }
