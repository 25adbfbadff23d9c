package httpapi

import (
	"encoding/json"
	"testing"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pii"
)

func TestSpecWireRoundTrip(t *testing.T) {
	w := SpecWire{
		Include:    []string{"aud-1", "aud-2"},
		IncludeAll: []string{"aud-3"},
		Exclude:    []string{"aud-4"},
		Expr:       "attr(platform.music.jazz) AND age(30, 65)",
	}
	spec, err := w.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Include) != 2 || len(spec.IncludeAll) != 1 || len(spec.Exclude) != 1 {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.Expr == nil || spec.Expr.String() != w.Expr {
		t.Fatalf("expr = %v", spec.Expr)
	}
	// Empty expr means match-all (nil).
	spec, err = SpecWire{}.ToSpec()
	if err != nil || spec.Expr != nil {
		t.Fatalf("empty spec = %+v, %v", spec, err)
	}
	if _, err := (SpecWire{Expr: "boom("}).ToSpec(); err == nil {
		t.Fatal("bad expr accepted")
	}
}

func TestCreativeWireRoundTrip(t *testing.T) {
	c := ad.Creative{
		Headline: "h", Body: "b", LandingURL: "u", LandingBody: "lb",
		ImagePNG: []byte{1, 2, 3},
	}
	got := FromCreative(c).ToCreative()
	if got.Headline != c.Headline || got.Body != c.Body ||
		got.LandingURL != c.LandingURL || got.LandingBody != c.LandingBody {
		t.Fatalf("round trip = %+v", got)
	}
	if len(got.ImagePNG) != 3 || got.ImagePNG[2] != 3 {
		t.Fatalf("image lost: %v", got.ImagePNG)
	}
	// Image travels as base64 through JSON.
	raw, err := json.Marshal(FromCreative(c))
	if err != nil {
		t.Fatal(err)
	}
	var back CreativeWire
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.ToCreative().ImagePNG) != 3 {
		t.Fatal("image lost through JSON")
	}
}

func TestMatchKeyWire(t *testing.T) {
	k, err := (MatchKeyWire{Type: "email", Hash: "abc"}).ToMatchKey()
	if err != nil || k.Type != pii.Email || k.Hash != "abc" {
		t.Fatalf("email key = %+v, %v", k, err)
	}
	k, err = (MatchKeyWire{Type: "phone", Hash: "def"}).ToMatchKey()
	if err != nil || k.Type != pii.Phone {
		t.Fatalf("phone key = %+v, %v", k, err)
	}
	if _, err := (MatchKeyWire{Type: "ssn"}).ToMatchKey(); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestReportWireRoundTrip(t *testing.T) {
	r := billing.Report{CampaignID: "c", Impressions: 7, Reach: 30, Spend: money.FromDollars(0.06)}
	want := ReportWire{CampaignID: "c", Impressions: 7, Reach: 30, SpendUSD: 0.06}
	if got := FromReport(r); got != want {
		t.Fatalf("FromReport = %+v, want %+v", got, want)
	}
}

func TestImpressionWireRoundTrip(t *testing.T) {
	i := ad.Impression{
		CampaignID: "c", Advertiser: "a", Slot: 5,
		Creative: ad.Creative{Body: "b", ImagePNG: []byte{9}},
	}
	got := FromImpression(i).ToImpression()
	if got.CampaignID != i.CampaignID || got.Advertiser != i.Advertiser ||
		got.Slot != i.Slot || got.Creative.Body != i.Creative.Body ||
		len(got.Creative.ImagePNG) != 1 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestAPIErrorMessage(t *testing.T) {
	e := &APIError{Status: 404, Message: "nope"}
	if e.Error() == "" {
		t.Fatal("empty error message")
	}
}
