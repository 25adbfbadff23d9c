package core

import (
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/profile"
)

func TestAffinityPayloadTokenRoundTrip(t *testing.T) {
	p := Payload{Kind: PayloadAffinity, Phrases: "salsa dance|jazz"}
	got, err := ParseToken(p.Token())
	if err != nil || got != p {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	if (Payload{Kind: PayloadAffinity}).Token() != "" {
		t.Error("empty phrases should yield empty token")
	}
	if PayloadAffinity.String() != "affinity" {
		t.Error("kind string wrong")
	}
	if !strings.Contains(p.Describe(nil), "salsa dance, jazz") {
		t.Errorf("Describe = %q", p.Describe(nil))
	}
}

func TestDeployAffinityTreadEndToEnd(t *testing.T) {
	p, pr := validationSetup(t, RevealObfuscated)
	// Author A has "Salsa dance" (set by PaperAuthors); author B does not.
	res, err := pr.DeployAffinityTread([]string{"salsa dance"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Campaigns) != 1 || len(res.Rejected) != 0 {
		t.Fatalf("deploy = %+v", res)
	}
	browseAll(t, p, "author-a", 20)
	browseAll(t, p, "author-b", 20)
	ext := &Extension{ProviderName: "tp", Codebook: pr.Codebook()}
	revA := ext.Scan(p.Feed("author-a"), p.Catalog())
	revB := ext.Scan(p.Feed("author-b"), p.Catalog())
	if len(revA.Affinities) != 1 || revA.Affinities[0] != "salsa dance" {
		t.Fatalf("author A affinities = %v", revA.Affinities)
	}
	if len(revB.Affinities) != 0 {
		t.Fatalf("author B affinities = %v", revB.Affinities)
	}
}

func TestDeployAffinityTreadRequiresOptIn(t *testing.T) {
	p, pr := validationSetup(t, RevealObfuscated)
	// A non-opted-in user with the attribute must NOT see the Tread.
	outsider := newOutsider(t, p)
	if _, err := pr.DeployAffinityTread([]string{"salsa dance"}); err != nil {
		t.Fatal(err)
	}
	browseAll(t, p, outsider, 20)
	ext := &Extension{ProviderName: "tp", Codebook: pr.Codebook()}
	rev := ext.Scan(p.Feed(outsider), p.Catalog())
	if len(rev.Affinities) != 0 {
		t.Fatal("affinity Tread leaked to a non-opted-in user")
	}
}

func TestDeployAffinityTreadBadPhrases(t *testing.T) {
	_, pr := validationSetup(t, RevealObfuscated)
	if _, err := pr.DeployAffinityTread(nil); err == nil {
		t.Error("empty phrase list accepted")
	}
}

func TestDeployLookalikeTreadEndToEnd(t *testing.T) {
	p, pr := validationSetup(t, RevealObfuscated)
	// Seed: the provider's own opt-in page likers (authors A and B, who
	// share the Boston/US profile but few attributes; give them a shared
	// signature attribute first).
	jazz := p.Catalog().Search("Jazz")[0].ID
	p.User("author-a").SetAttr(jazz)
	p.User("author-b").SetAttr(jazz)
	// A third user resembles the seed but never opted in...
	twin := profile.New("twin")
	twin.SetCountry("US")
	twin.AgeYrs = 30
	twin.SetAttr(jazz)
	if err := p.AddUser(twin); err != nil {
		t.Fatal(err)
	}
	// ...and a fourth opted-in user who resembles the seed.
	cousin := profile.New("cousin")
	cousin.SetCountry("US")
	cousin.AgeYrs = 31
	cousin.SetAttr(jazz)
	if err := p.AddUser(cousin); err != nil {
		t.Fatal(err)
	}
	p.LikePage("cousin", pr.OptInPage())

	// Wait: page likers now include cousin; build the seed from a
	// separate engagement audience of just the authors' page likes to
	// keep the seed stable. Use a fresh page liked only by the authors.
	p.LikePage("author-a", "seed-page")
	p.LikePage("author-b", "seed-page")
	seedID, err := p.CreateAudience(pr.Name(), audience.Def{Kind: audience.KindEngagement, Name: "seed", Page: "seed-page"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pr.DeployLookalikeTread(seedID, "our seed members", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Campaigns) != 1 {
		t.Fatalf("campaigns = %d", len(res.Campaigns))
	}
	browseAll(t, p, "cousin", 20)
	browseAll(t, p, "twin", 20)
	ext := &Extension{ProviderName: pr.Name(), Codebook: pr.Codebook()}
	revCousin := ext.Scan(p.Feed("cousin"), p.Catalog())
	if len(revCousin.Lookalikes) != 1 || revCousin.Lookalikes[0] != "our seed members" {
		t.Fatalf("cousin lookalikes = %v", revCousin.Lookalikes)
	}
	// The twin resembles the seed but did not opt in: no Tread.
	revTwin := ext.Scan(p.Feed("twin"), p.Catalog())
	if len(revTwin.Lookalikes) != 0 {
		t.Fatal("lookalike Tread leaked to a non-opted-in user")
	}
	if _, err := pr.DeployLookalikeTread(seedID, "", 0.5); err == nil {
		t.Error("unlabelled lookalike Tread accepted")
	}
}

func TestLookalikePayloadRoundTrip(t *testing.T) {
	p := Payload{Kind: PayloadLookalike, SeedDesc: "acme's customer list"}
	got, err := ParseToken(p.Token())
	if err != nil || got != p {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	if (Payload{Kind: PayloadLookalike}).Token() != "" {
		t.Error("empty seed desc should yield empty token")
	}
	if PayloadLookalike.String() != "lookalike" {
		t.Error("kind string wrong")
	}
	if !strings.Contains(p.Describe(nil), "acme's customer list") {
		t.Errorf("Describe = %q", p.Describe(nil))
	}
}

func TestDeployExprTreadEndToEnd(t *testing.T) {
	p, pr := validationSetup(t, RevealObfuscated)
	// The paper's compound: 30+ AND interested in Salsa dance. Author A
	// (38, salsa) matches; author B (26, no salsa) does not.
	e := attr.MustParse("age(30, 120) AND attr(" +
		string(p.Catalog().Search("Salsa dance")[0].ID) + ")")
	res, err := pr.DeployExprTread(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Campaigns) != 1 {
		t.Fatalf("campaigns = %d", len(res.Campaigns))
	}
	browseAll(t, p, "author-a", 20)
	browseAll(t, p, "author-b", 20)
	ext := &Extension{ProviderName: pr.Name(), Codebook: pr.Codebook()}
	revA := ext.Scan(p.Feed("author-a"), p.Catalog())
	revB := ext.Scan(p.Feed("author-b"), p.Catalog())
	if len(revA.Exprs) != 1 || revA.Exprs[0] != e.String() {
		t.Fatalf("author A exprs = %v", revA.Exprs)
	}
	if len(revB.Exprs) != 0 {
		t.Fatalf("author B exprs = %v", revB.Exprs)
	}
	// Errors.
	if _, err := pr.DeployExprTread(nil); err == nil {
		t.Error("nil expression accepted")
	}
	if _, err := pr.DeployExprTread(attr.Has{ID: "no.such.attr"}); err == nil {
		t.Error("invalid expression accepted")
	}
}

func TestExprPayloadRoundTrip(t *testing.T) {
	p := Payload{Kind: PayloadExpr, Expr: "attr(a.b.c) AND age(30, 65)"}
	got, err := ParseToken(p.Token())
	if err != nil || got != p {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	// Malformed expressions are rejected at parse time.
	if _, err := ParseToken("E:boom("); err == nil {
		t.Error("malformed expr token accepted")
	}
	if (Payload{Kind: PayloadExpr}).Token() != "" {
		t.Error("empty expr should yield empty token")
	}
	if PayloadExpr.String() != "expr" {
		t.Error("kind string wrong")
	}
	if !strings.Contains(p.Describe(nil), "attr(a.b.c)") {
		t.Errorf("Describe = %q", p.Describe(nil))
	}
}
