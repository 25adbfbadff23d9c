package cluster_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"sync"
	"testing"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/explain"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
)

// wireBackend answers the ops whose wire forms are the public API's with
// fixed values; every other op is left to the nil embedded Backend.
type wireBackend struct{ rpc.Backend }

func (wireBackend) AdPreferences(profile.UserID) ([]attr.ID, error) {
	return []attr.ID{"platform.hobbies_and_activities.salsa_dance", "partner.net_worth.over_2m"}, nil
}

func (wireBackend) ExplainImpression(profile.UserID, ad.Impression) (explain.Explanation, error) {
	return explain.Explanation{Attribute: "platform.hobbies_and_activities.salsa_dance", Text: "You're interested in salsa dance."}, nil
}

func (wireBackend) RegisterAdvertiser(string) error { return nil }

func (wireBackend) CreateCampaign(string, platform.CampaignParams) (string, error) {
	return "camp-000007", nil
}

// CreateAudience answers aud-000001 … aud-000005 for the five kinds in
// their order.
func (wireBackend) CreateAudience(_ string, d audience.Def) (audience.AudienceID, error) {
	return audience.AudienceID(fmt.Sprintf("aud-%06d", d.Kind+1)), nil
}

func (wireBackend) IssuePixel(string) (pixel.PixelID, error) { return "px-000003", nil }

// TestShardWireGoldenBytes pins the shard wire of the ops whose request or
// response form is the public API's: each call's request and response
// bodies, byte for byte.
func TestShardWireGoldenBytes(t *testing.T) {
	srv := rpc.NewServer(wireBackend{}, "", nil)
	// mu orders the handler's recording before the test's read of it.
	var mu sync.Mutex
	var op string
	var req, resp bytes.Buffer
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		op = path.Base(r.URL.Path)
		req.Reset()
		resp.Reset()
		r.Body = io.NopCloser(io.TeeReader(r.Body, &req))
		srv.ServeHTTP(teeWriter{ResponseWriter: w, copy: &resp}, r)
	}))
	defer hs.Close()
	rs := cluster.NewRemoteShard(rpc.NewClient(hs.URL, rpc.Options{MaxRetries: -1}))
	defer rs.Close()

	const u profile.UserID = "user-000042"
	imp := ad.Impression{CampaignID: "camp-000007", Advertiser: "acme", Creative: ad.Creative{Headline: "H", Body: "B"}, Slot: 2}
	key := pii.MatchKey{Type: pii.Email, Hash: "ab12"}
	for _, c := range []struct {
		op, req, resp string
		call          func() error
	}{
		{"adpreferences", `{"user_id":"user-000042"}`,
			`{"attributes":["platform.hobbies_and_activities.salsa_dance","partner.net_worth.over_2m"]}`,
			func() error { _, err := rs.AdPreferences(u); return err }},
		{"explain", `{"user_id":"user-000042","impression":{"campaign_id":"camp-000007","advertiser":"acme","creative":{"headline":"H","body":"B"},"slot":2}}`,
			`{"attribute":"platform.hobbies_and_activities.salsa_dance","text":"You're interested in salsa dance."}`,
			func() error { _, err := rs.ExplainImpression(u, imp); return err }},
		{"register", `{"name":"acme"}`, `{}`,
			func() error { return rs.RegisterAdvertiser("acme") }},
		{"createcampaign", `{"advertiser":"acme","params":{"spec":{},"creative":{"headline":"H","body":"B"},"budget_micros":5000000}}`,
			`{"campaign_id":"camp-000007"}`,
			func() error {
				_, err := rs.CreateCampaign("acme", platform.CampaignParams{Creative: imp.Creative, Budget: 5_000_000})
				return err
			}},
		{"createpiiaudience", `{"advertiser":"acme","name":"list","keys":[{"type":"email","hash":"ab12"}]}`,
			`{"audience_id":"aud-000001"}`,
			func() error {
				_, err := rs.CreateAudience("acme", audience.Def{Kind: audience.KindPII, Name: "list", Keys: []pii.MatchKey{key}})
				return err
			}},
		{"createwebsiteaudience", `{"advertiser":"acme","name":"site","pixel_id":"px-000003"}`,
			`{"audience_id":"aud-000002"}`,
			func() error {
				_, err := rs.CreateAudience("acme", audience.Def{Kind: audience.KindWebsite, Name: "site", Pixel: "px-000003"})
				return err
			}},
		{"createengagementaudience", `{"advertiser":"acme","name":"fans","page_id":"page-x"}`,
			`{"audience_id":"aud-000003"}`,
			func() error {
				_, err := rs.CreateAudience("acme", audience.Def{Kind: audience.KindEngagement, Name: "fans", Page: "page-x"})
				return err
			}},
		{"createaffinityaudience", `{"advertiser":"acme","name":"jazz","phrases":["jazz"]}`,
			`{"audience_id":"aud-000004"}`,
			func() error {
				_, err := rs.CreateAudience("acme", audience.Def{Kind: audience.KindAffinity, Name: "jazz", Phrases: []string{"jazz"}})
				return err
			}},
		{"createlookalikeaudience", `{"advertiser":"acme","name":"like","seed":"aud-000001","overlap":0.5}`,
			`{"audience_id":"aud-000005"}`,
			func() error {
				_, err := rs.CreateAudience("acme", audience.Def{Kind: audience.KindLookalike, Name: "like", Seed: "aud-000001", Overlap: 0.5})
				return err
			}},
		{"issuepixel", `{"advertiser":"acme"}`, `{"pixel_id":"px-000003"}`,
			func() error { _, err := rs.IssuePixel("acme"); return err }},
	} {
		if err := c.call(); err != nil {
			t.Errorf("%s: %v", c.op, err)
			continue
		}
		mu.Lock()
		gotOp := op
		gotReq := strings.TrimSuffix(req.String(), "\n")
		gotResp := strings.TrimSuffix(resp.String(), "\n")
		mu.Unlock()
		if gotOp != c.op {
			t.Errorf("the call for %s sent op %s", c.op, gotOp)
		}
		if gotReq != c.req {
			t.Errorf("%s request:\n got %s\nwant %s", c.op, gotReq, c.req)
		}
		if gotResp != c.resp {
			t.Errorf("%s response:\n got %s\nwant %s", c.op, gotResp, c.resp)
		}
	}
}

// teeWriter copies the response body a handler writes.
type teeWriter struct {
	http.ResponseWriter
	copy *bytes.Buffer
}

func (w teeWriter) Write(p []byte) (int, error) {
	w.copy.Write(p)
	return w.ResponseWriter.Write(p)
}
