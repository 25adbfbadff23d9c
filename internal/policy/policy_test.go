package policy

import (
	"testing"

	"github.com/treads-project/treads/internal/ad"
)

func TestReviewRejectsExplicitTread(t *testing.T) {
	// The paper's example explicit Tread (§3): "You are interested in
	// Salsa dancing according to this ad platform".
	c := ad.Creative{
		Headline: "Transparency notice",
		Body:     "You are interested in Salsa dancing according to this ad platform.",
	}
	d := Review(c)
	if d.Verdict != Rejected {
		t.Fatalf("explicit Tread approved: %+v", d)
	}
	if len(d.Reasons) == 0 {
		t.Fatal("rejection carries no reasons")
	}
}

func TestReviewRejectsNetWorthAssertion(t *testing.T) {
	// Figure 1a: an explicit Tread about net worth over $2M.
	c := ad.Creative{
		Headline: "What Facebook knows",
		Body:     "This ad platform believes your net worth is over $2,000,000.",
	}
	if d := Review(c); d.Verdict != Rejected {
		t.Fatalf("net-worth assertion approved: %+v", d)
	}
}

func TestReviewApprovesObfuscatedTread(t *testing.T) {
	// Figure 1b: the obfuscated Tread encodes the parameter as an
	// innocuous number ("2,830,120") with no personal-attribute language.
	c := ad.Creative{
		Headline: "A message from the transparency project",
		Body:     "Reference code 2,830,120. Visit our page to learn more.",
	}
	if d := Review(c); d.Verdict != Approved {
		t.Fatalf("obfuscated Tread rejected: %+v", d)
	}
}

func TestReviewApprovesLandingPageTread(t *testing.T) {
	// Landing-page Treads keep the assertion off the reviewed creative.
	c := ad.Creative{
		Headline:    "Transparency project",
		Body:        "Curious what advertisers can see? Click through.",
		LandingURL:  "https://transparency.example/t/42",
		LandingBody: "You are in the audience: net worth over $2,000,000.",
	}
	if d := Review(c); d.Verdict != Approved {
		t.Fatalf("landing-page Tread rejected: %+v (review must not see landing content)", d)
	}
}

func TestReviewApprovesOrdinaryAd(t *testing.T) {
	c := ad.Creative{
		Headline: "Fall sale",
		Body:     "All shoes 20% off this week only.",
	}
	if d := Review(c); d.Verdict != Approved {
		t.Fatalf("ordinary ad rejected: %+v", d)
	}
}

func TestReviewNeedsBothMarkerAndTerm(t *testing.T) {
	// Sensitive term without second person: fine (e.g. a bank advertising
	// net worth calculators).
	c := ad.Creative{Body: "Calculate net worth with our free tool."}
	if d := Review(c); d.Verdict != Approved {
		t.Fatalf("third-person sensitive term rejected: %+v", d)
	}
	// Second person without sensitive term: fine.
	c = ad.Creative{Body: "You are going to love this new coffee."}
	if d := Review(c); d.Verdict != Approved {
		t.Fatalf("benign second-person ad rejected: %+v", d)
	}
}

func TestReviewCaseInsensitive(t *testing.T) {
	c := ad.Creative{Body: "YOU ARE INTERESTED IN skydiving, says your PROFILE"}
	if d := Review(c); d.Verdict != Rejected {
		t.Fatalf("case variation evaded review: %+v", d)
	}
}

func TestReviewHeadlineCounts(t *testing.T) {
	c := ad.Creative{Headline: "Because you purchase luxury apparel", Body: "hello"}
	if d := Review(c); d.Verdict != Rejected {
		t.Fatalf("headline assertion approved: %+v", d)
	}
}

func explicit() ad.Creative {
	return ad.Creative{Body: "You are interested in salsa according to your profile."}
}

func TestEnforcerBansRepeatOffenders(t *testing.T) {
	e := NewEnforcer(3)
	for i := 0; i < 2; i++ {
		if d := e.Submit("adv1", explicit()); d.Verdict != Rejected {
			t.Fatalf("submission %d approved", i)
		}
		if e.Banned("adv1") {
			t.Fatalf("banned after only %d violations", i+1)
		}
	}
	e.Submit("adv1", explicit())
	if !e.Banned("adv1") {
		t.Fatal("not banned after 3 violations")
	}
	if e.violations["adv1"] != 3 {
		t.Fatalf("violations = %d", e.violations["adv1"])
	}
	// Banned accounts cannot run even clean ads.
	d := e.Submit("adv1", ad.Creative{Body: "Totally clean ad."})
	if d.Verdict != Rejected {
		t.Fatal("banned account ran an ad")
	}
}

func TestEnforcerCleanAdsDoNotAccumulate(t *testing.T) {
	e := NewEnforcer(1)
	for i := 0; i < 5; i++ {
		if d := e.Submit("adv1", ad.Creative{Body: "sale today"}); d.Verdict != Approved {
			t.Fatal("clean ad rejected")
		}
	}
	if e.Banned("adv1") || e.violations["adv1"] != 0 {
		t.Fatal("clean ads accumulated violations")
	}
}

func TestEnforcerBanAfterZeroDisablesBans(t *testing.T) {
	e := NewEnforcer(0)
	for i := 0; i < 10; i++ {
		e.Submit("adv1", explicit())
	}
	if e.Banned("adv1") {
		t.Fatal("banned despite BanAfter=0")
	}
}

func TestEnforcerManualBan(t *testing.T) {
	e := NewEnforcer(0)
	e.Ban("adv1")
	if !e.Banned("adv1") {
		t.Fatal("manual ban not applied")
	}
	if e.Banned("adv2") {
		t.Fatal("unrelated account banned")
	}
}
