package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// publicSamples holds a well-formed request for every public route of the
// table, by pattern: its query string and body. In the path, {name} is an
// advertiser, {id} a campaign or user and {pixelID} a pixel.
var publicSamples = map[string]struct {
	query string
	body  any
}{
	"POST /api/v1/advertisers": {"", RegisterAdvertiserRequest{Name: "adv2"}},
	"POST /api/v1/advertisers/{name}/campaigns": {"", CreateCampaignRequest{
		Spec: SpecWire{Expr: "attr(platform.music.jazz) AND age(18, 65)"}, BidCapUSD: 5,
		Creative: CreativeWire{Headline: "h", Body: "b"}, FrequencyCap: 2, BudgetUSD: 1,
	}},
	"POST /api/v1/advertisers/{name}/campaigns/{id}/pause": {"", nil},
	"GET /api/v1/advertisers/{name}/campaigns/{id}/report": {"", nil},
	"POST /api/v1/advertisers/{name}/audiences/pii": {"", CreatePIIAudienceRequest{
		Name: "list", Keys: []MatchKeyWire{FromMatchKey(fuzzEmailKey)},
	}},
	"POST /api/v1/advertisers/{name}/audiences/website":    {"", CreateWebsiteAudienceRequest{Name: "visitors", PixelID: "px-000001"}},
	"POST /api/v1/advertisers/{name}/audiences/engagement": {"", CreateEngagementAudienceRequest{Name: "fans", PageID: "page-1"}},
	"POST /api/v1/advertisers/{name}/audiences/affinity":   {"", CreateAffinityAudienceRequest{Name: "jazz", Phrases: []string{"jazz"}}},
	"POST /api/v1/advertisers/{name}/audiences/lookalike":  {"", CreateLookalikeAudienceRequest{Name: "like", Seed: "aud-000001", Overlap: 0.5}},
	"POST /api/v1/advertisers/{name}/pixels":               {"", nil},
	"POST /api/v1/advertisers/{name}/reach":                {"", ReachRequest{Spec: SpecWire{Include: []string{"aud-000001"}, Expr: "age(18, 65)"}}},
	"GET /api/v1/attributes":                               {"q=jazz", nil},
	"POST /api/v1/users/{id}/browse":                       {"slots=3", nil},
	"GET /api/v1/users/{id}/feed":                          {"", nil},
	"GET /api/v1/users/{id}/adpreferences":                 {"", nil},
	"GET /api/v1/users/{id}/advertisers":                   {"", nil},
	"POST /api/v1/users/{id}/likes":                        {"", LikeRequest{PageID: "page-1"}},
	"POST /api/v1/users/{id}/explain":                      {"", ImpressionWire{CampaignID: "camp-000001", Advertiser: "adv", Slot: 0}},
	"GET /pixel/{pixelID}":                                 {"uid=u0", nil},
}

// publicRoutes are the rows of the table that a caller other than the
// operator reaches.
func publicRoutes(tb testing.TB) []*RouteInfo {
	var out []*RouteInfo
	for _, rt := range Routes {
		switch rt.Scope {
		case Admin, Compaction, Membership:
			continue
		}
		if _, ok := publicSamples[rt.Pattern]; !ok {
			tb.Fatalf("no sample request for %s", rt.Pattern)
		}
		out = append(out, rt)
	}
	return out
}

var fuzzEmailKey, _ = pii.HashEmail("u0@example.com")

// fuzzPlatform is a fresh platform with two users, an advertiser "adv"
// holding a campaign, a pixel and a PII audience, so well-formed requests
// reach the platform rather than stopping at a 404.
func fuzzPlatform(t *testing.T) *platform.Platform {
	p := platform.New(platform.Config{Seed: 1})
	for i := 0; i < 2; i++ {
		u := profile.New(profile.UserID(fmt.Sprintf("u%d", i)))
		u.SetCountry("US")
		u.AgeYrs = 30
		u.SetAttr("platform.music.jazz")
		u.SetPII(pii.Record{Emails: []string{fmt.Sprintf("u%d@example.com", i)}})
		if err := p.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	spec, err := SpecWire{Expr: "attr(platform.music.jazz)"}.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	err = p.RegisterAdvertiser("adv")
	if err == nil {
		_, err = p.CreateCampaign("adv", platform.CampaignParams{Spec: spec, BidCapCPM: 5_000_000})
	}
	if err == nil {
		_, err = p.IssuePixel("adv")
	}
	if err == nil {
		_, err = p.CreateAudience("adv", audience.Def{Kind: audience.KindPII, Name: "seed", Keys: []pii.MatchKey{fuzzEmailKey}})
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzPublicAPI drives every public route with an arbitrary body, query
// string and path parameter against a fresh platform. Whatever the input,
// the answer is not a 5xx and the handler does not panic: a malformed
// request is the client's error.
func FuzzPublicAPI(f *testing.F) {
	routes := publicRoutes(f)
	for i, rt := range routes {
		sample := publicSamples[rt.Pattern]
		var body []byte
		if sample.body != nil {
			var err error
			if body, err = json.Marshal(sample.body); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(uint8(i), "", sample.query, body)
		f.Add(uint8(i), "nobody", sample.query+"&slots=-1&q=%ff", []byte(`{"spec":{"expr":"age(`))
		f.Add(uint8(i), "adv", "", []byte(`{"name":7}`))
	}
	f.Fuzz(func(t *testing.T, route uint8, param, query string, body []byte) {
		rt := routes[int(route)%len(routes)]
		p := Params{Name: "adv", ID: "camp-000001", PixelID: "px-000001"}
		if rt.Scope == User {
			p.ID = "u0"
		}
		if param != "" {
			p = Params{Name: param, ID: param, PixelID: param}
		}
		path, _, _ := strings.Cut(rt.URL(p), "?")
		req, err := http.NewRequest(rt.Method, "http://treads.test"+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		NewServer(fuzzPlatform(t), nil).ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s %s?%s with body %q: %d %s", rt.Method, path, query, body, rec.Code, rec.Body)
		}
	})
}
