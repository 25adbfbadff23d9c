package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// publicRoute is one route of the public API with a well-formed request for
// it. In the path, {name} is an advertiser and {id} a campaign or user.
type publicRoute struct {
	method, path, query string
	body                any
}

var publicRoutes = []publicRoute{
	{"POST", "/api/v1/advertisers", "", RegisterAdvertiserRequest{Name: "adv2"}},
	{"POST", "/api/v1/advertisers/{name}/campaigns", "", CreateCampaignRequest{
		Spec: SpecWire{Expr: "attr(platform.music.jazz) AND age(18, 65)"}, BidCapUSD: 5,
		Creative: CreativeWire{Headline: "h", Body: "b"}, FrequencyCap: 2, BudgetUSD: 1,
	}},
	{"POST", "/api/v1/advertisers/{name}/campaigns/{id}/pause", "", nil},
	{"GET", "/api/v1/advertisers/{name}/campaigns/{id}/report", "", nil},
	{"POST", "/api/v1/advertisers/{name}/audiences/pii", "", CreatePIIAudienceRequest{
		Name: "list", Keys: []MatchKeyWire{FromMatchKey(fuzzEmailKey)},
	}},
	{"POST", "/api/v1/advertisers/{name}/audiences/website", "", CreateWebsiteAudienceRequest{Name: "visitors", PixelID: "px-000001"}},
	{"POST", "/api/v1/advertisers/{name}/audiences/engagement", "", CreateEngagementAudienceRequest{Name: "fans", PageID: "page-1"}},
	{"POST", "/api/v1/advertisers/{name}/audiences/affinity", "", CreateAffinityAudienceRequest{Name: "jazz", Phrases: []string{"jazz"}}},
	{"POST", "/api/v1/advertisers/{name}/audiences/lookalike", "", CreateLookalikeAudienceRequest{Name: "like", Seed: "aud-000001", Overlap: 0.5}},
	{"POST", "/api/v1/advertisers/{name}/pixels", "", nil},
	{"POST", "/api/v1/advertisers/{name}/reach", "", ReachRequest{Spec: SpecWire{Include: []string{"aud-000001"}, Expr: "age(18, 65)"}}},
	{"GET", "/api/v1/attributes", "q=jazz", nil},
	{"POST", "/api/v1/users/{id}/browse", "slots=3", nil},
	{"GET", "/api/v1/users/{id}/feed", "", nil},
	{"GET", "/api/v1/users/{id}/adpreferences", "", nil},
	{"GET", "/api/v1/users/{id}/advertisers", "", nil},
	{"POST", "/api/v1/users/{id}/likes", "", LikeRequest{PageID: "page-1"}},
	{"POST", "/api/v1/users/{id}/explain", "", ImpressionWire{CampaignID: "camp-000001", Advertiser: "adv", Slot: 0}},
	{"GET", "/pixel/px-000001", "uid=u0", nil},
}

var fuzzEmailKey, _ = pii.HashEmail("u0@example.com")

// fuzzPlatform is a fresh platform with two users, an advertiser "adv"
// holding a campaign, a pixel and a PII audience, so well-formed requests
// reach the platform rather than stopping at a 404.
func fuzzPlatform(t *testing.T) *platform.Platform {
	p := platform.New(platform.Config{Seed: 1})
	for i := 0; i < 2; i++ {
		u := profile.New(profile.UserID(fmt.Sprintf("u%d", i)))
		u.Nation, u.AgeYrs = "US", 30
		u.SetAttr("platform.music.jazz")
		u.PII = pii.Record{Emails: []string{fmt.Sprintf("u%d@example.com", i)}}
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
	for i, r := range publicRoutes {
		var body []byte
		if r.body != nil {
			var err error
			if body, err = json.Marshal(r.body); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(uint8(i), "", r.query, body)
		f.Add(uint8(i), "nobody", r.query+"&slots=-1&q=%ff", []byte(`{"spec":{"expr":"age(`))
		f.Add(uint8(i), "adv", "", []byte(`{"name":7}`))
	}
	f.Fuzz(func(t *testing.T, route uint8, param, query string, body []byte) {
		r := publicRoutes[int(route)%len(publicRoutes)]
		name, id := "adv", "camp-000001"
		if strings.Contains(r.path, "/users/") {
			id = "u0"
		}
		if param != "" {
			name, id = param, param
		}
		path := strings.NewReplacer("{name}", url.PathEscape(name), "{id}", url.PathEscape(id)).Replace(r.path)
		req, err := http.NewRequest(r.method, "http://treads.test"+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		NewServer(fuzzPlatform(t), nil).ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s %s?%s with body %q: %d %s", r.method, path, query, body, rec.Code, rec.Body)
		}
	})
}
