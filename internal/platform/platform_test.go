package platform

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/profile"
)

// fixedPlatform returns a platform with a deterministic $2 market so that a
// $10 bid always wins, populated with n users (even users have salsa).
func fixedPlatform(t *testing.T, n int, reviewAds bool) *Platform {
	t.Helper()
	market := auction.Market{BaseCPM: money.FromDollars(2), Sigma: 0, Floor: money.FromDollars(0.1)}
	p := New(Config{Market: &market, Seed: 1, ReviewAds: reviewAds, BanAfter: 0})
	salsa := p.Catalog().Search("Salsa dance")[0].ID
	for i := 0; i < n; i++ {
		pr := profile.New(profile.UserID(fmt.Sprintf("u%02d", i)))
		pr.Nation = "US"
		pr.AgeYrs = 30
		if i%2 == 0 {
			pr.SetAttr(salsa)
		}
		if err := p.AddUser(pr); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func salsaID(p *Platform) attr.ID { return p.Catalog().Search("Salsa dance")[0].ID }

func TestRegisterAdvertiser(t *testing.T) {
	p := New(Config{})
	if err := p.RegisterAdvertiser("tp"); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterAdvertiser("tp"); err == nil {
		t.Error("duplicate advertiser accepted")
	}
	if err := p.RegisterAdvertiser("  "); err == nil {
		t.Error("blank advertiser accepted")
	}
}

func TestCreateCampaignRequiresAccount(t *testing.T) {
	p := fixedPlatform(t, 2, false)
	_, err := p.CreateCampaign("ghost", CampaignParams{Creative: ad.Creative{Body: "x"}})
	if err == nil {
		t.Fatal("unknown advertiser accepted")
	}
}

func TestCreateCampaignValidatesTargeting(t *testing.T) {
	p := fixedPlatform(t, 2, false)
	if err := p.RegisterAdvertiser("tp"); err != nil {
		t.Fatal(err)
	}
	_, err := p.CreateCampaign("tp", CampaignParams{
		Spec: audience.Spec{Expr: attr.Has{ID: "no.such.attr"}},
	})
	if err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestCampaignDeliveryEndToEnd(t *testing.T) {
	p := fixedPlatform(t, 10, false)
	if err := p.RegisterAdvertiser("tp"); err != nil {
		t.Fatal(err)
	}
	id, err := p.CreateCampaign("tp", CampaignParams{
		Spec:      audience.Spec{Expr: attr.Has{ID: salsaID(p)}},
		BidCapCPM: money.FromDollars(10),
		Creative:  ad.Creative{Headline: "h", Body: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		uid := profile.UserID(fmt.Sprintf("u%02d", i))
		imps, err := p.BrowseFeed(uid, 3)
		if err != nil {
			t.Fatal(err)
		}
		if (len(imps) > 0) != (i%2 == 0) {
			t.Errorf("user %s delivery mismatch", uid)
		}
	}
	r, err := p.Report(context.Background(), "tp", id)
	if err != nil {
		t.Fatal(err)
	}
	if r.Impressions == 0 {
		t.Fatal("no impressions recorded")
	}
	// 5 users reached: under the billing threshold, so $0 invoiced.
	if r.Spend != 0 {
		t.Fatalf("spend = %v", r.Spend)
	}
}

func TestReportOwnership(t *testing.T) {
	p := fixedPlatform(t, 2, false)
	p.RegisterAdvertiser("a1")
	p.RegisterAdvertiser("a2")
	id, err := p.CreateCampaign("a1", CampaignParams{Creative: ad.Creative{Body: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Report(context.Background(), "a2", id); err == nil {
		t.Error("cross-advertiser report accepted")
	}
	if _, err := p.Report(context.Background(), "a1", "camp-bogus"); err == nil {
		t.Error("unknown campaign accepted")
	}
	if err := p.PauseCampaign("a2", id); err == nil {
		t.Error("cross-advertiser pause accepted")
	}
	if err := p.PauseCampaign("a1", id); err != nil {
		t.Fatal(err)
	}
}

func TestAdReviewRejectsExplicitCreative(t *testing.T) {
	p := fixedPlatform(t, 2, true)
	p.RegisterAdvertiser("tp")
	_, err := p.CreateCampaign("tp", CampaignParams{
		Creative: ad.Creative{Body: "You are interested in salsa according to this platform."},
	})
	if err == nil {
		t.Fatal("explicit Tread accepted under review")
	}
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("error %v does not wrap ErrRejected", err)
	}
	// Obfuscated creative passes.
	if _, err := p.CreateCampaign("tp", CampaignParams{
		Creative: ad.Creative{Body: "Reference code 2,830,120."},
	}); err != nil {
		t.Fatalf("obfuscated Tread rejected: %v", err)
	}
}

func TestBannedAdvertiserCannotCreate(t *testing.T) {
	p := fixedPlatform(t, 2, true)
	p.RegisterAdvertiser("tp")
	p.Enforcer().Ban("tp")
	_, err := p.CreateCampaign("tp", CampaignParams{Creative: ad.Creative{Body: "clean"}})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("banned advertiser error = %v", err)
	}
}

func TestPIIAudienceFlow(t *testing.T) {
	p := fixedPlatform(t, 4, false)
	p.RegisterAdvertiser("tp")
	u := p.User("u01")
	u.PII = pii.Record{Emails: []string{"u01@example.com"}}
	// Re-add is not possible; PII index built at Add time, so build the
	// audience from keys and match via a fresh platform instead.
	p2 := New(Config{Market: &auction.Market{BaseCPM: money.FromDollars(2), Floor: money.FromDollars(0.1)}, Seed: 1})
	pr := profile.New("x1")
	pr.PII = pii.Record{Emails: []string{"x1@example.com"}}
	if err := p2.AddUser(pr); err != nil {
		t.Fatal(err)
	}
	p2.RegisterAdvertiser("tp")
	k, _ := pii.HashEmail("x1@example.com")
	audID, err := p2.CreatePIIAudience("tp", "optins", []pii.MatchKey{k})
	if err != nil {
		t.Fatal(err)
	}
	id, err := p2.CreateCampaign("tp", CampaignParams{
		Spec:      audience.Spec{Include: []audience.AudienceID{audID}},
		BidCapCPM: money.FromDollars(10),
		Creative:  ad.Creative{Body: "control"},
	})
	if err != nil {
		t.Fatal(err)
	}
	imps, err := p2.BrowseFeed("x1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) == 0 || imps[0].CampaignID != id {
		t.Fatalf("PII-targeted ad not delivered: %v", imps)
	}
}

func TestPixelOptInFlow(t *testing.T) {
	p := fixedPlatform(t, 4, false)
	p.RegisterAdvertiser("tp")
	px, err := p.IssuePixel("tp")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VisitPage("u01", px); err != nil {
		t.Fatal(err)
	}
	if err := p.VisitPage("ghost", px); err == nil {
		t.Error("unknown user visit accepted")
	}
	audID, err := p.CreateWebsiteAudience("tp", "visitors", px)
	if err != nil {
		t.Fatal(err)
	}
	id, err := p.CreateCampaign("tp", CampaignParams{
		Spec:      audience.Spec{Include: []audience.AudienceID{audID}},
		BidCapCPM: money.FromDollars(10),
		Creative:  ad.Creative{Body: "hello visitor"},
	})
	if err != nil {
		t.Fatal(err)
	}
	imps, _ := p.BrowseFeed("u01", 2)
	if len(imps) == 0 || imps[0].CampaignID != id {
		t.Fatal("pixel-audience ad not delivered to visitor")
	}
	imps, _ = p.BrowseFeed("u02", 2)
	if len(imps) != 0 {
		t.Fatal("pixel-audience ad delivered to non-visitor")
	}
}

func TestLikePageEngagementFlow(t *testing.T) {
	p := fixedPlatform(t, 4, false)
	p.RegisterAdvertiser("tp")
	if err := p.LikePage("u03", "tp-page"); err != nil {
		t.Fatal(err)
	}
	if err := p.LikePage("ghost", "tp-page"); err == nil {
		t.Error("unknown user like accepted")
	}
	audID, err := p.CreateEngagementAudience("tp", "likers", "tp-page")
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.CreateCampaign("tp", CampaignParams{
		Spec:      audience.Spec{Include: []audience.AudienceID{audID}},
		BidCapCPM: money.FromDollars(10),
		Creative:  ad.Creative{Body: "for likers"},
	})
	if err != nil {
		t.Fatal(err)
	}
	imps, _ := p.BrowseFeed("u03", 2)
	if len(imps) == 0 {
		t.Fatal("engagement ad not delivered to liker")
	}
	imps, _ = p.BrowseFeed("u00", 2)
	if len(imps) != 0 {
		t.Fatal("engagement ad delivered to non-liker")
	}
}

func TestPotentialReach(t *testing.T) {
	p := fixedPlatform(t, 100, false)
	p.RegisterAdvertiser("tp")
	reach, err := p.PotentialReach(context.Background(), "tp", audience.Spec{Expr: attr.Has{ID: salsaID(p)}})
	if err != nil {
		t.Fatal(err)
	}
	if reach != 50 {
		t.Fatalf("reach = %d, want 50", reach)
	}
	if _, err := p.PotentialReach(context.Background(), "ghost", audience.Spec{}); err == nil {
		t.Error("unknown advertiser accepted")
	}
}

func TestDefaultBidIsRecommended(t *testing.T) {
	p := fixedPlatform(t, 2, false)
	p.RegisterAdvertiser("tp")
	id, err := p.CreateCampaign("tp", CampaignParams{Creative: ad.Creative{Body: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	_ = id
	// A $2 default bid against a fixed $2 market never wins (ties go to
	// the market), so nothing is delivered.
	imps, _ := p.BrowseFeed("u00", 5)
	if len(imps) != 0 {
		t.Fatalf("default bid won %d slots against equal fixed market", len(imps))
	}
}

func TestAdPreferencesAndExplanation(t *testing.T) {
	p := fixedPlatform(t, 4, false)
	p.RegisterAdvertiser("tp")
	partner := p.Catalog().BySource(attr.SourcePartner)[0].ID
	u := p.User("u00")
	u.SetAttr(partner)

	prefs, err := p.AdPreferences("u00")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range prefs {
		if id == partner {
			t.Fatal("ad preferences leaked a partner attribute")
		}
	}
	if len(prefs) == 0 {
		t.Fatal("ad preferences empty despite platform attribute")
	}
	if _, err := p.AdPreferences("ghost"); err == nil {
		t.Error("unknown user accepted")
	}

	_, err = p.CreateCampaign("tp", CampaignParams{
		Spec:      audience.Spec{Expr: attr.NewAnd(attr.Has{ID: salsaID(p)}, attr.Has{ID: partner})},
		BidCapCPM: money.FromDollars(10),
		Creative:  ad.Creative{Body: "multi-attr ad"},
	})
	if err != nil {
		t.Fatal(err)
	}
	imps, _ := p.BrowseFeed("u00", 1)
	if len(imps) != 1 {
		t.Fatal("ad not delivered")
	}
	ex, err := p.ExplainImpression("u00", imps[0])
	if err != nil {
		t.Fatal(err)
	}
	if ex.Attribute == "" {
		t.Fatal("explanation disclosed nothing")
	}
	if !strings.Contains(ex.Text, "because") {
		t.Fatalf("explanation text = %q", ex.Text)
	}
	if _, err := p.ExplainImpression("ghost", imps[0]); err == nil {
		t.Error("unknown user accepted for explanation")
	}
	bogus := imps[0]
	bogus.CampaignID = "camp-bogus"
	if _, err := p.ExplainImpression("u00", bogus); err == nil {
		t.Error("unknown campaign accepted for explanation")
	}
}

func TestSearchAttributes(t *testing.T) {
	p := New(Config{})
	if len(p.SearchAttributes("net worth")) != 9 {
		t.Error("SearchAttributes wrong")
	}
}

func TestAdvertisersTargetingMe(t *testing.T) {
	p := fixedPlatform(t, 4, false)
	p.RegisterAdvertiser("pii-adv")
	p.RegisterAdvertiser("pixel-adv")
	p.RegisterAdvertiser("attr-adv")

	// pii-adv targets u00 via a PII list.
	u := p.User("u00")
	u.PII = pii.Record{Emails: []string{"u00@example.com"}}
	// Rebuild store index is not possible post-Add; instead target u01
	// via pixel and test PII on a user added with PII from the start.
	px, err := p.IssuePixel("pixel-adv")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VisitPage("u01", px); err != nil {
		t.Fatal(err)
	}
	webAud, err := p.CreateWebsiteAudience("pixel-adv", "visitors", px)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateCampaign("pixel-adv", CampaignParams{
		Spec:      audience.Spec{Include: []audience.AudienceID{webAud}},
		BidCapCPM: money.FromDollars(10),
		Creative:  ad.Creative{Body: "retargeted"},
	}); err != nil {
		t.Fatal(err)
	}
	// attr-adv targets by attribute only: must NOT appear on the page.
	if _, err := p.CreateCampaign("attr-adv", CampaignParams{
		Spec:      audience.Spec{Expr: attr.Has{ID: salsaID(p)}},
		BidCapCPM: money.FromDollars(10),
		Creative:  ad.Creative{Body: "interest ad"},
	}); err != nil {
		t.Fatal(err)
	}

	got, err := p.AdvertisersTargetingMe("u01")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "pixel-adv" {
		t.Fatalf("AdvertisersTargetingMe(u01) = %v, want [pixel-adv]", got)
	}
	// u02 fired no pixel: nobody custom-targets them.
	got, err = p.AdvertisersTargetingMe("u02")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("AdvertisersTargetingMe(u02) = %v, want empty", got)
	}
	if _, err := p.AdvertisersTargetingMe("ghost"); err == nil {
		t.Error("unknown user accepted")
	}
}

func TestAdvertisersTargetingMePIIList(t *testing.T) {
	p := fixedPlatform(t, 0, false)
	u := profile.New("pii-user")
	u.PII = pii.Record{Emails: []string{"pii-user@example.com"}}
	if err := p.AddUser(u); err != nil {
		t.Fatal(err)
	}
	p.RegisterAdvertiser("lister")
	k, _ := pii.HashEmail("pii-user@example.com")
	audID, err := p.CreatePIIAudience("lister", "bought list", []pii.MatchKey{k})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateCampaign("lister", CampaignParams{
		Spec:      audience.Spec{Include: []audience.AudienceID{audID}},
		BidCapCPM: money.FromDollars(10),
		Creative:  ad.Creative{Body: "from the list"},
	}); err != nil {
		t.Fatal(err)
	}
	got, err := p.AdvertisersTargetingMe("pii-user")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "lister" {
		t.Fatalf("AdvertisersTargetingMe = %v", got)
	}
}

func TestCampaignBudgetThroughPlatform(t *testing.T) {
	p := fixedPlatform(t, 30, false)
	p.RegisterAdvertiser("tp")
	id, err := p.CreateCampaign("tp", CampaignParams{
		BidCapCPM: money.FromDollars(10),
		Creative:  ad.Creative{Body: "budgeted"},
		Budget:    money.FromDollars(0.004), // 2 impressions at $0.002
	})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 0; i < 30; i++ {
		imps, _ := p.BrowseFeed(profile.UserID(fmt.Sprintf("u%02d", i)), 1)
		delivered += len(imps)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d impressions on a 2-impression budget", delivered)
	}
	_ = id
}

// TestPauseDuringTransparencyReads pins that a campaign's Paused flag is
// read only under the delivery pipeline's lock: the §2.2 "advertisers
// targeting me" page stays up while an advertiser pauses campaigns, on a
// plain platform and on a journaled one (whose reads bypass the journal
// mutex, as a follower's do). Run under -race.
func TestPauseDuringTransparencyReads(t *testing.T) {
	const campaigns, reads = 50, 200
	type surface interface {
		mutator
		AdvertisersTargetingMe(profile.UserID) ([]string, error)
	}
	jp := mustOpenJournaled(t, t.TempDir(), journal.Options{NoSync: true}, func() (*Platform, error) {
		return fixedPlatform(t, 2, false), nil
	})
	defer jp.Close()
	for name, p := range map[string]surface{"plain": fixedPlatform(t, 2, false), "journaled": jp} {
		if err := p.RegisterAdvertiser("adv"); err != nil {
			t.Fatal(err)
		}
		px, err := p.IssuePixel("adv")
		if err != nil {
			t.Fatal(err)
		}
		if err := p.VisitPage("u00", px); err != nil {
			t.Fatal(err)
		}
		aud, err := p.CreateWebsiteAudience("adv", "visitors", px)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, campaigns)
		for i := range ids {
			ids[i], err = p.CreateCampaign("adv", CampaignParams{
				Spec:     audience.Spec{Include: []audience.AudienceID{aud}},
				Creative: ad.Creative{Body: "retargeted"},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, id := range ids {
				if err := p.PauseCampaign("adv", id); err != nil {
					t.Error(err)
				}
			}
		}()
		for i := 0; i < reads; i++ {
			got, err := p.AdvertisersTargetingMe("u00")
			if err != nil || len(got) > 1 || (len(got) == 1 && got[0] != "adv") {
				t.Fatalf("%s: AdvertisersTargetingMe = %v, %v", name, got, err)
			}
		}
		<-done
		if got, _ := p.AdvertisersTargetingMe("u00"); len(got) != 0 {
			t.Fatalf("%s: every campaign is paused, yet AdvertisersTargetingMe = %v", name, got)
		}
	}
}
