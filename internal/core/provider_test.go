package core

import (
	"fmt"
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/workload"
)

// newTestPlatform returns a platform with a fixed $2 market (a $10 bid
// always wins) and no ad review.
func newTestPlatform(reviewAds bool) *platform.Platform {
	market := auction.Market{BaseCPM: money.FromDollars(2), Sigma: 0, Floor: money.FromDollars(0.1)}
	return platform.New(platform.Config{Market: &market, Seed: 7, ReviewAds: reviewAds})
}

// validationSetup loads the paper's two authors onto a platform, opts them
// in via page like, and returns the provider.
func validationSetup(t *testing.T, mode RevealMode) (*platform.Platform, *Provider) {
	t.Helper()
	p := newTestPlatform(false)
	a, b, err := workload.PaperAuthors(p.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddUser(a); err != nil {
		t.Fatal(err)
	}
	if err := p.AddUser(b); err != nil {
		t.Fatal(err)
	}
	pr, err := NewProvider(p, ProviderConfig{Name: "tp", Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	for _, uid := range []profile.UserID{"author-a", "author-b"} {
		if err := p.LikePage(uid, pr.OptInPage()); err != nil {
			t.Fatal(err)
		}
	}
	return p, pr
}

func partnerIDs(p *platform.Platform) []attr.ID {
	var ids []attr.ID
	for _, a := range p.Catalog().BySource(attr.SourcePartner) {
		ids = append(ids, a.ID)
	}
	return ids
}

// browseAll lets a user view enough slots for every Tread to have its
// chance.
func browseAll(t *testing.T, p *platform.Platform, uid profile.UserID, slots int) {
	t.Helper()
	if _, err := p.BrowseFeed(uid, slots); err != nil {
		t.Fatal(err)
	}
}

func TestProviderDefaults(t *testing.T) {
	p := newTestPlatform(false)
	pr, err := NewProvider(p, ProviderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Name() != "transparency-provider" {
		t.Errorf("default name = %q", pr.Name())
	}
	if pr.cfg.BidCapCPM != DefaultBidCapCPM {
		t.Errorf("default bid = %v", pr.cfg.BidCapCPM)
	}
	if pr.cfg.FrequencyCap != 1 {
		t.Errorf("default frequency cap = %d", pr.cfg.FrequencyCap)
	}
	if pr.cfg.Mode != RevealExplicit {
		t.Errorf("default mode = %v", pr.cfg.Mode)
	}
}

func TestProviderDuplicateName(t *testing.T) {
	p := newTestPlatform(false)
	if _, err := NewProvider(p, ProviderConfig{Name: "tp"}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewProvider(p, ProviderConfig{Name: "tp"}); err == nil {
		t.Fatal("duplicate provider name accepted")
	}
}

// TestPaperValidation reproduces §3.1: 507 partner Treads + control to two
// opted-in users; author A (11 broker attributes) receives exactly his 11
// Treads plus the control; author B receives only the control.
func TestPaperValidation(t *testing.T) {
	p, pr := validationSetup(t, RevealObfuscated)
	res, err := pr.DeployAttrTreads(partnerIDs(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Campaigns) != attr.NumPartnerAttrs {
		t.Fatalf("deployed %d Treads, want %d", len(res.Campaigns), attr.NumPartnerAttrs)
	}
	if len(res.Rejected) != 0 {
		t.Fatalf("%d Treads rejected without review", len(res.Rejected))
	}
	if res.ControlID == "" {
		t.Fatal("no control campaign")
	}

	browseAll(t, p, "author-a", 600)
	browseAll(t, p, "author-b", 600)

	ext := &Extension{ProviderName: "tp", Codebook: pr.Codebook()}
	revA := ext.Scan(p.Feed("author-a"), p.Catalog())
	revB := ext.Scan(p.Feed("author-b"), p.Catalog())

	if !revA.ControlSeen || !revB.ControlSeen {
		t.Fatal("control ad did not reach both authors")
	}
	if len(revA.Attrs) != 11 {
		t.Fatalf("author A learned %d attributes, want 11", len(revA.Attrs))
	}
	if len(revB.Attrs) != 0 {
		t.Fatalf("author B learned %d attributes, want 0", len(revB.Attrs))
	}
	// The revealed set must be exactly A's partner attributes.
	authorA := p.User("author-a")
	for _, id := range revA.Attrs {
		if !authorA.HasAttr(id) {
			t.Errorf("revealed attribute %q the user does not have", id)
		}
	}
	nw := p.Catalog().Search("Net worth: over $2,000,000")[0].ID
	if !revA.HasAttr(nw) {
		t.Error("Figure 1 net-worth attribute not revealed")
	}
}

func TestControlOnlyDeployIdempotent(t *testing.T) {
	_, pr := validationSetup(t, RevealExplicit)
	id1, err := pr.DeployControl()
	if err != nil {
		t.Fatal(err)
	}
	id2, err := pr.DeployControl()
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatal("control campaign duplicated")
	}
	if pr.controlID != id1 {
		t.Fatal("controlID mismatch")
	}
}

func TestDeployNotAttrTreads(t *testing.T) {
	p, pr := validationSetup(t, RevealExplicit)
	nw := p.Catalog().Search("Net worth: over $2,000,000")[0].ID
	res, err := pr.DeployNotAttrTreads([]attr.ID{nw})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Campaigns) != 1 {
		t.Fatalf("campaigns = %d", len(res.Campaigns))
	}
	browseAll(t, p, "author-a", 20)
	browseAll(t, p, "author-b", 20)
	ext := &Extension{ProviderName: "tp"}
	revA := ext.Scan(p.Feed("author-a"), p.Catalog())
	revB := ext.Scan(p.Feed("author-b"), p.Catalog())
	if revA.absentSet[nw] {
		t.Error("author A (who has net worth) got the exclusion Tread")
	}
	if !revB.absentSet[nw] {
		t.Error("author B (no broker record) did not get the exclusion Tread")
	}
}

func TestDeployValueTreads(t *testing.T) {
	p, pr := validationSetup(t, RevealObfuscated)
	life := p.Catalog().Get("platform.demographics.life_stage")
	p.User("author-a").SetAttrValue(life.ID, "young family")

	res, err := pr.DeployValueTreads(life.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Campaigns) != len(life.Values) {
		t.Fatalf("campaigns = %d, want %d", len(res.Campaigns), len(life.Values))
	}
	browseAll(t, p, "author-a", 50)
	ext := &Extension{ProviderName: "tp", Codebook: pr.Codebook()}
	rev := ext.Scan(p.Feed("author-a"), p.Catalog())
	if rev.Values[life.ID] != "young family" {
		t.Fatalf("revealed value = %q", rev.Values[life.ID])
	}
	// One-per-value: the user paid for exactly one value impression
	// (cost argument of §3.1), i.e. only one value campaign delivered.
	delivered := 0
	for cid := range res.Campaigns {
		if r, err := pr.Report(cid); err == nil && r.Impressions > 0 {
			delivered++
		}
	}
	if delivered != 1 {
		t.Fatalf("%d value Treads delivered, want exactly 1", delivered)
	}
}

func TestDeployValueTreadsErrors(t *testing.T) {
	p, pr := validationSetup(t, RevealExplicit)
	if _, err := pr.DeployValueTreads("no.such.attr"); err == nil {
		t.Error("unknown attribute accepted")
	}
	bin := p.Catalog().BySource(attr.SourcePlatform)[0].ID
	if _, err := pr.DeployValueTreads(bin); err == nil {
		t.Error("binary attribute accepted for value Treads")
	}
}

func TestDeployBitSplitTreads(t *testing.T) {
	p, pr := validationSetup(t, RevealObfuscated)
	life := p.Catalog().Get("platform.demographics.life_stage")
	// Value index 5 = "golden years" (bits 101 -> bits 0 and 2 set).
	p.User("author-a").SetAttrValue(life.ID, life.Values[5])

	res, err := pr.DeployBitSplitTreads(life.ID)
	if err != nil {
		t.Fatal(err)
	}
	// 1 confirmation + 3 bits for 8 values.
	if len(res.Campaigns) != 4 {
		t.Fatalf("campaigns = %d, want 4", len(res.Campaigns))
	}
	browseAll(t, p, "author-a", 50)
	ext := &Extension{ProviderName: "tp", Codebook: pr.Codebook()}
	rev := ext.Scan(p.Feed("author-a"), p.Catalog())
	if got := rev.Values[life.ID]; got != life.Values[5] {
		t.Fatalf("bit-split revealed %q, want %q", got, life.Values[5])
	}
}

func TestDeployBitSplitErrors(t *testing.T) {
	p, pr := validationSetup(t, RevealExplicit)
	if _, err := pr.DeployBitSplitTreads("no.such.attr"); err == nil {
		t.Error("unknown attribute accepted")
	}
	bin := p.Catalog().BySource(attr.SourcePlatform)[0].ID
	if _, err := pr.DeployBitSplitTreads(bin); err == nil {
		t.Error("binary attribute accepted for bit-split")
	}
}

func TestDeployPIIChecks(t *testing.T) {
	p := newTestPlatform(false)
	u := profile.New("u1")
	u.PII = pii.Record{Emails: []string{"u1@example.com"}, Phones: []string{"617-555-0100"}}
	if err := p.AddUser(u); err != nil {
		t.Fatal(err)
	}
	pr, err := NewProvider(p, ProviderConfig{Name: "tp", Mode: RevealObfuscated})
	if err != nil {
		t.Fatal(err)
	}
	held, _ := pii.HashEmail("u1@example.com")
	notHeld, _ := pii.HashEmail("other@example.com")
	oldPhone, _ := pii.HashPhone("617-555-0100")

	res, err := pr.DeployPIIChecks([]pii.MatchKey{held, notHeld, oldPhone})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Campaigns) != 3 {
		t.Fatalf("campaigns = %d", len(res.Campaigns))
	}
	browseAll(t, p, "u1", 20)
	ext := &Extension{ProviderName: "tp", Codebook: pr.Codebook()}
	rev := ext.Scan(p.Feed("u1"), p.Catalog())
	if !rev.HasPIIHash(held.Hash) {
		t.Error("held email not revealed")
	}
	if !rev.HasPIIHash(oldPhone.Hash) {
		t.Error("held phone not revealed")
	}
	if rev.HasPIIHash(notHeld.Hash) {
		t.Error("unheld email falsely revealed")
	}
}

func TestDeployCustomAttrOptIn(t *testing.T) {
	p, pr := validationSetup(t, RevealObfuscated)
	nw := p.Catalog().Search("Net worth: over $2,000,000")[0].ID
	px, res, err := pr.DeployCustomAttrOptIn(nw)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Campaigns) != 1 {
		t.Fatalf("campaigns = %d", len(res.Campaigns))
	}
	// Nobody has opted in to this attribute yet: nobody sees it.
	browseAll(t, p, "author-a", 20)
	ext := &Extension{ProviderName: "tp", Codebook: pr.Codebook()}
	if rev := ext.Scan(p.Feed("author-a"), p.Catalog()); rev.HasAttr(nw) {
		t.Fatal("Tread shown before per-attribute opt-in")
	}
	// Author A opts in by visiting the attribute's page; the running
	// campaign picks the visit up lazily.
	if err := p.VisitPage("author-a", px); err != nil {
		t.Fatal(err)
	}
	browseAll(t, p, "author-a", 20)
	if rev := ext.Scan(p.Feed("author-a"), p.Catalog()); !rev.HasAttr(nw) {
		t.Fatal("Tread not shown after per-attribute opt-in")
	}
	if _, _, err := pr.DeployCustomAttrOptIn("no.such.attr"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestAnonymousPixelOptIn(t *testing.T) {
	p, _ := validationSetup(t, RevealObfuscated)
	// A third user opts in anonymously via the provider's website pixel
	// rather than a page like.
	u := profile.New("anon-user")
	u.Nation = "US"
	u.AgeYrs = 40
	nw := p.Catalog().Search("Net worth: over $2,000,000")[0].ID
	u.SetAttr(nw)
	if err := p.AddUser(u); err != nil {
		t.Fatal(err)
	}
	pr2, err := NewProvider(p, ProviderConfig{Name: "tp2", Mode: RevealObfuscated})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.VisitPage("anon-user", pr2.OptInPixel()); err != nil {
		t.Fatal(err)
	}
	if _, err := pr2.DeployAttrTreads([]attr.ID{nw}); err != nil {
		t.Fatal(err)
	}
	browseAll(t, p, "anon-user", 20)
	ext := &Extension{ProviderName: "tp2", Codebook: pr2.Codebook()}
	rev := ext.Scan(p.Feed("anon-user"), p.Catalog())
	if !rev.HasAttr(nw) || !rev.ControlSeen {
		t.Fatal("pixel-opted-in user did not receive Treads")
	}
}

func TestHashedPIIOptIn(t *testing.T) {
	p := newTestPlatform(false)
	u := profile.New("u1")
	u.PII = pii.Record{Emails: []string{"u1@example.com"}}
	u.SetAttr("platform.music.jazz")
	if err := p.AddUser(u); err != nil {
		t.Fatal(err)
	}
	pr, err := NewProvider(p, ProviderConfig{Name: "tp", Mode: RevealExplicit})
	if err != nil {
		t.Fatal(err)
	}
	k, _ := pii.HashEmail("u1@example.com")
	pr.OptInHashedPII(k)
	if _, err := pr.DeployAttrTreads([]attr.ID{"platform.music.jazz"}); err != nil {
		t.Fatal(err)
	}
	browseAll(t, p, "u1", 20)
	ext := &Extension{ProviderName: "tp"}
	rev := ext.Scan(p.Feed("u1"), p.Catalog())
	if !rev.HasAttr("platform.music.jazz") {
		t.Fatal("PII-opted-in user did not receive the Tread")
	}
}

func TestExplicitTreadsRejectedUnderReview(t *testing.T) {
	market := auction.Market{BaseCPM: money.FromDollars(2), Sigma: 0, Floor: money.FromDollars(0.1)}
	p := platform.New(platform.Config{Market: &market, Seed: 7, ReviewAds: true})
	a, b, _ := workload.PaperAuthors(p.Catalog())
	p.AddUser(a)
	p.AddUser(b)
	pr, err := NewProvider(p, ProviderConfig{Name: "tp", Mode: RevealExplicit})
	if err != nil {
		t.Fatal(err)
	}
	p.LikePage("author-a", pr.OptInPage())
	nw := p.Catalog().Search("Net worth: over $2,000,000")[0].ID
	res, err := pr.DeployAttrTreads([]attr.ID{nw})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rejected) != 1 || len(res.Campaigns) != 0 {
		t.Fatalf("rejected=%d campaigns=%d; explicit Treads must be rejected under review",
			len(res.Rejected), len(res.Campaigns))
	}
	// The same deployment in obfuscated mode passes.
	pr2, err := NewProvider(p, ProviderConfig{Name: "tp2", Mode: RevealObfuscated})
	if err != nil {
		t.Fatal(err)
	}
	p.LikePage("author-a", pr2.OptInPage())
	res2, err := pr2.DeployAttrTreads([]attr.ID{nw})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rejected) != 0 || len(res2.Campaigns) != 1 {
		t.Fatalf("obfuscated deployment rejected: %+v", res2.Rejected)
	}
}

func TestProviderObservesOnlyAggregates(t *testing.T) {
	// The provider's entire view: campaign reports. For the 2-user
	// validation every report shows reach 0 and spend $0 — no per-user
	// information, and "zero cost since too few users were reached".
	p, pr := validationSetup(t, RevealObfuscated)
	if _, err := pr.DeployAttrTreads(partnerIDs(p)[:20]); err != nil {
		t.Fatal(err)
	}
	browseAll(t, p, "author-a", 100)
	browseAll(t, p, "author-b", 100)
	for _, cid := range pr.Campaigns() {
		r, err := pr.Report(cid)
		if err != nil {
			t.Fatal(err)
		}
		if r.Reach != 0 {
			t.Fatalf("campaign %s leaked reach %d for a 2-user audience", cid, r.Reach)
		}
		if r.Spend != 0 {
			t.Fatalf("campaign %s invoiced %v for a 2-user audience", cid, r.Spend)
		}
	}
	if pr.TotalInvoiced() != 0 {
		t.Fatalf("TotalInvoiced = %v, want $0", pr.TotalInvoiced())
	}
}

func TestReportOwnershipViaProvider(t *testing.T) {
	_, pr := validationSetup(t, RevealExplicit)
	if _, err := pr.Report("camp-bogus"); err == nil {
		t.Error("unknown campaign accepted")
	}
}

func TestPayloadOf(t *testing.T) {
	p, pr := validationSetup(t, RevealExplicit)
	nw := p.Catalog().Search("Net worth: over $2,000,000")[0].ID
	res, err := pr.DeployAttrTreads([]attr.ID{nw})
	if err != nil {
		t.Fatal(err)
	}
	for cid, want := range res.Campaigns {
		got, ok := pr.campaigns[cid]
		if !ok || got != want {
			t.Fatalf("PayloadOf(%s) = %+v, %v", cid, got, ok)
		}
	}
	if _, ok := pr.campaigns["nope"]; ok {
		t.Error("PayloadOf unknown campaign succeeded")
	}
	if n := len(pr.Campaigns()); n != 2 { // control + 1 Tread
		t.Errorf("Campaigns() = %d entries", n)
	}
}

func TestExpectedCostPerAttribute(t *testing.T) {
	if got := NewCostModel(money.FromDollars(2)).PerAttribute(); got != money.FromDollars(0.002) {
		t.Errorf("$2 CPM cost = %v", got)
	}
	if got := NewCostModel(money.FromDollars(10)).PerAttribute(); got != money.FromDollars(0.01) {
		t.Errorf("$10 CPM cost = %v", got)
	}
}

func TestLargePopulationInvoicing(t *testing.T) {
	// With enough opted-in users the threshold clears and the provider is
	// billed the second-price per impression.
	p := newTestPlatform(false)
	jazz := attr.ID("platform.music.jazz")
	for i := 0; i < 60; i++ {
		u := profile.New(profile.UserID(fmt.Sprintf("u%03d", i)))
		u.Nation = "US"
		u.AgeYrs = 30
		u.SetAttr(jazz)
		if err := p.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	pr, err := NewProvider(p, ProviderConfig{Name: "tp", Mode: RevealObfuscated})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		p.LikePage(profile.UserID(fmt.Sprintf("u%03d", i)), pr.OptInPage())
	}
	res, err := pr.DeployAttrTreads([]attr.ID{jazz})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		browseAll(t, p, profile.UserID(fmt.Sprintf("u%03d", i)), 10)
	}
	var treadID string
	for cid := range res.Campaigns {
		treadID = cid
	}
	r, err := pr.Report(treadID)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reach != 60 {
		t.Fatalf("reach = %d, want 60", r.Reach)
	}
	// 60 impressions at the $2 second price = 60 x $0.002 = $0.12.
	if r.Spend != money.FromDollars(0.12) {
		t.Fatalf("spend = %v, want $0.12", r.Spend)
	}
}

// newOutsider adds a salsa-holding user who has NOT opted in to any
// provider and returns their ID.
func newOutsider(t *testing.T, p *platform.Platform) profile.UserID {
	t.Helper()
	u := profile.New("outsider")
	u.Nation = "US"
	u.AgeYrs = 30
	u.SetAttr(p.Catalog().Search("Salsa dance")[0].ID)
	if err := p.AddUser(u); err != nil {
		t.Fatal(err)
	}
	return u.ID
}
