package treads_test

// Integration tests over the public facade: everything a downstream user
// of the library touches, end to end, without reaching into internal/.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/treads-project/treads"
	"github.com/treads-project/treads/internal/httpapi"
)

// fixedMarket makes delivery deterministic: competitor always bids $2, so
// the provider's default $10 bid always wins.
func fixedMarket() *treads.Market {
	return &treads.Market{BaseCPM: treads.Dollars(2), Sigma: 0, Floor: treads.Dollars(0.10)}
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	p := treads.NewPlatform(treads.PlatformConfig{Seed: 42, Market: fixedMarket()})
	u := treads.NewProfile("alice")
	u.SetCountry("US")
	u.AgeYrs = 34
	salsa := p.Catalog().Search("Salsa dance")[0].ID
	netWorth := p.Catalog().Search("Net worth: over $2,000,000")[0].ID
	u.SetAttr(salsa)
	u.SetAttr(netWorth)
	if err := p.AddUser(u); err != nil {
		t.Fatal(err)
	}

	tp, err := treads.NewProvider(p, treads.ProviderConfig{
		Name: "tp", Mode: treads.RevealObfuscated,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LikePage("alice", tp.OptInPage()); err != nil {
		t.Fatal(err)
	}
	res, err := tp.DeployAttrTreads([]treads.AttrID{salsa, netWorth})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Campaigns) != 2 {
		t.Fatalf("campaigns = %d", len(res.Campaigns))
	}
	if _, err := p.BrowseFeed("alice", 20); err != nil {
		t.Fatal(err)
	}
	ext := &treads.Extension{ProviderName: tp.Name(), Codebook: tp.Codebook()}
	rev := ext.Scan(p.Feed("alice"), p.Catalog())
	if !rev.ControlSeen {
		t.Error("control not seen")
	}
	if !rev.HasAttr(salsa) || !rev.HasAttr(netWorth) {
		t.Errorf("revealed = %v", rev.Attrs)
	}
	// The platform's own page hides the partner attribute.
	prefs, err := p.AdPreferences("alice")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range prefs {
		if id == netWorth {
			t.Error("ad preferences leaked the partner attribute")
		}
	}
	if tp.TotalInvoiced() != 0 {
		t.Errorf("invoiced %v for a 1-user audience", tp.TotalInvoiced())
	}
}

func TestPublicAPIPaperAuthorsFixture(t *testing.T) {
	a, b, err := treads.PaperAuthors(treads.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if a == nil || b == nil {
		t.Fatal("nil authors")
	}
}

func TestPublicAPIPartnerAttrIDs(t *testing.T) {
	p := treads.NewPlatform(treads.PlatformConfig{})
	ids := treads.PartnerAttrIDs(p)
	if len(ids) != 507 {
		t.Fatalf("partner attrs = %d, want 507", len(ids))
	}
}

func TestPublicAPIExprAndCostHelpers(t *testing.T) {
	e, err := treads.ParseExpr("attr(platform.music.jazz) AND age(30, 65)")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() == "" {
		t.Fatal("empty expr string")
	}
	if _, err := treads.ParseExpr("boom("); err == nil {
		t.Fatal("bad expr accepted")
	}
	m := treads.NewCostModel(treads.Dollars(2))
	if m.PerUser(50) != treads.Dollars(0.10) {
		t.Fatalf("PerUser(50) = %v", m.PerUser(50))
	}
	if treads.BitsNeeded(1024) != 10 {
		t.Fatal("BitsNeeded wrong")
	}
}

func TestPublicAPIPIIHashing(t *testing.T) {
	k, err := treads.HashEmail("User@Example.com")
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := treads.HashEmail("user@example.com")
	if k != k2 {
		t.Fatal("normalization lost through facade")
	}
	if _, err := treads.HashPhone("617-555-0123"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPICrowdsourcingHelpers(t *testing.T) {
	p := treads.NewPlatform(treads.PlatformConfig{})
	shards, err := treads.ShardAttributes(treads.PartnerAttrIDs(p), 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cov := treads.Coverage(shards, nil); cov != 1 {
		t.Fatalf("coverage = %v", cov)
	}
}

func TestPublicAPIWorkloadAndBaseline(t *testing.T) {
	cfg := treads.DefaultWorkload()
	cfg.Users = 20
	pop := treads.GeneratePopulation(cfg)
	if len(pop) != 20 {
		t.Fatalf("population = %d", len(pop))
	}
	c := treads.NewCorrelator()
	if c == nil {
		t.Fatal("nil correlator")
	}
	// Exercised properly in internal/baseline; here just the types.
	_ = []treads.PanelMember{}
}

func TestPublicAPIHTTPServerAndClient(t *testing.T) {
	ctx := context.Background()
	p := treads.NewPlatform(treads.PlatformConfig{Seed: 9, Market: fixedMarket()})
	for i := 0; i < 3; i++ {
		u := treads.NewProfile(treads.UserID(fmt.Sprintf("u%d", i)))
		u.SetCountry("US")
		u.AgeYrs = 40
		if err := p.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(treads.NewServer(p))
	defer srv.Close()
	api := treads.NewClient(srv.URL)

	if err := api.RegisterAdvertiser(ctx, "tp"); err != nil {
		t.Fatal(err)
	}
	px, err := api.IssuePixel(ctx, "tp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := api.FirePixel(ctx, px, "u0"); err != nil {
		t.Fatal(err)
	}
	audID, err := api.CreateWebsiteAudience(ctx, "tp",
		treads.CreateWebsiteAudienceRequest{Name: "optins", PixelID: px})
	if err != nil {
		t.Fatal(err)
	}
	cid, err := api.CreateCampaign(ctx, "tp", treads.CreateCampaignRequest{
		Spec:      treads.SpecWire{Include: []string{audID}},
		BidCapUSD: 10,
		Creative:  treads.CreativeWire{Headline: "h", Body: "hello"},
	})
	if err != nil {
		t.Fatal(err)
	}
	imps, err := api.Browse(ctx, "u0", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) == 0 || imps[0].CampaignID != cid {
		t.Fatalf("impressions = %v", imps)
	}
	if !strings.HasPrefix(cid, "camp-") {
		t.Fatalf("campaign id = %q", cid)
	}
	hits, err := httpapi.Call(ctx, api, httpapi.RouteSearchAttributes, httpapi.Params{Q: "net worth"}, struct{}{})
	if err != nil || len(hits) != 9 {
		t.Fatalf("search = %d hits, %v", len(hits), err)
	}
}

func TestPublicAPIStegoMode(t *testing.T) {
	p := treads.NewPlatform(treads.PlatformConfig{Seed: 3, Market: fixedMarket(), ReviewAds: true})
	u := treads.NewProfile("eve")
	u.SetCountry("US")
	u.AgeYrs = 28
	jazz := p.Catalog().Search("Jazz")[0].ID
	u.SetAttr(jazz)
	if err := p.AddUser(u); err != nil {
		t.Fatal(err)
	}
	tp, err := treads.NewProvider(p, treads.ProviderConfig{Name: "tp", Mode: treads.RevealStego})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LikePage("eve", tp.OptInPage()); err != nil {
		t.Fatal(err)
	}
	res, err := tp.DeployAttrTreads([]treads.AttrID{jazz})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rejected) != 0 {
		t.Fatalf("stego Treads rejected under review: %v", res.Rejected)
	}
	if _, err := p.BrowseFeed("eve", 10); err != nil {
		t.Fatal(err)
	}
	ext := &treads.Extension{ProviderName: "tp"}
	rev := ext.Scan(p.Feed("eve"), p.Catalog())
	if !rev.HasAttr(jazz) {
		t.Fatal("stego Tread not decoded")
	}
}

func TestPublicAPIPrivacyView(t *testing.T) {
	v := treads.ProviderView{
		Report:  treads.Report{Reach: 500},
		OptedIn: 1000,
	}
	est, lo, hi := treads.PrevalenceEstimate(v)
	if est != 0.5 || lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("estimate = %v [%v,%v]", est, lo, hi)
	}
}
