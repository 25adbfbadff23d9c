package httpapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/explain"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// goldenRefusal answers the two keys every fixed backend below reserves:
// "ghost" names nothing the platform holds (the route's refusal), "down"
// sits on a shard that cannot be reached (503).
func goldenRefusal(key string) error {
	switch key {
	case "ghost":
		return fmt.Errorf("golden: no such %q", key)
	case "down":
		return fmt.Errorf("golden: %q: %w", key, Unavailable("golden: shard unavailable"))
	}
	return nil
}

// goldenBackend answers every Backend call with fixed values, so the
// public wire is pinned independent of the platform behind it.
type goldenBackend struct{}

// BrowseFeedCtx answers one impression whose slot is the slot count asked
// for, so the bytes show how the query was read.
func (goldenBackend) BrowseFeedCtx(_ context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	if err := goldenRefusal(string(uid)); err != nil {
		return nil, err
	}
	return []ad.Impression{{CampaignID: "camp-000007", Advertiser: "acme", Creative: ad.Creative{Headline: "H", Body: "B"}, Slot: slots}}, nil
}

// FeedCtx answers an empty feed for "new".
func (goldenBackend) FeedCtx(_ context.Context, uid profile.UserID) ([]ad.Impression, error) {
	if err := goldenRefusal(string(uid)); err != nil || uid == "new" {
		return nil, err
	}
	return []ad.Impression{
		{CampaignID: "camp-000007", Advertiser: "acme", Creative: ad.Creative{Headline: "H", Body: "B", LandingURL: "https://acme.example"}, Slot: 0},
		{CampaignID: "camp-000008", Advertiser: "acme", Slot: 1},
	}, nil
}

func (goldenBackend) VisitPage(uid profile.UserID, px pixel.PixelID) error {
	if err := goldenRefusal(string(uid)); err != nil {
		return err
	}
	return goldenRefusal(string(px))
}

func (goldenBackend) LikePage(uid profile.UserID, pageID string) error {
	if err := goldenRefusal(string(uid)); err != nil {
		return err
	}
	return goldenRefusal(pageID)
}

func (goldenBackend) AdPreferences(uid profile.UserID) ([]attr.ID, error) {
	if err := goldenRefusal(string(uid)); err != nil {
		return nil, err
	}
	return []attr.ID{"platform.hobbies_and_activities.salsa_dance", "partner.net_worth.over_2m"}, nil
}

func (goldenBackend) AdvertisersTargetingMe(uid profile.UserID) ([]string, error) {
	if err := goldenRefusal(string(uid)); err != nil {
		return nil, err
	}
	return []string{"acme", "retargeter"}, nil
}

func (goldenBackend) ExplainImpression(uid profile.UserID, imp ad.Impression) (explain.Explanation, error) {
	if err := goldenRefusal(string(uid)); err != nil {
		return explain.Explanation{}, err
	}
	if err := goldenRefusal(imp.CampaignID); err != nil {
		return explain.Explanation{}, err
	}
	return explain.Explanation{Attribute: "platform.hobbies_and_activities.salsa_dance", Text: "You're interested in salsa dance."}, nil
}

func (goldenBackend) RegisterAdvertiser(name string) error { return goldenRefusal(name) }

// CreateCampaign rejects a creative whose body is "rejected" in review.
func (goldenBackend) CreateCampaign(advertiser string, params platform.CampaignParams) (string, error) {
	if err := goldenRefusal(advertiser); err != nil {
		return "", err
	}
	if params.Creative.Body == "rejected" {
		return "", fmt.Errorf("golden: %w: reasons [personal attribute]", platform.ErrRejected)
	}
	return "camp-000007", nil
}

func (goldenBackend) PauseCampaign(advertiser, campaignID string) error {
	if err := goldenRefusal(advertiser); err != nil {
		return err
	}
	return goldenRefusal(campaignID)
}

// CreateAudience answers aud-000001 … aud-000005 for the five kinds in
// their order.
func (goldenBackend) CreateAudience(advertiser string, d audience.Def) (audience.AudienceID, error) {
	if err := goldenRefusal(advertiser); err != nil {
		return "", err
	}
	return audience.AudienceID(fmt.Sprintf("aud-%06d", d.Kind+1)), nil
}

func (goldenBackend) IssuePixel(advertiser string) (pixel.PixelID, error) {
	if err := goldenRefusal(advertiser); err != nil {
		return "", err
	}
	return "px-000003", nil
}

func (goldenBackend) Report(_ context.Context, advertiser, campaignID string) (billing.Report, error) {
	if err := goldenRefusal(advertiser); err != nil {
		return billing.Report{}, err
	}
	if err := goldenRefusal(campaignID); err != nil {
		return billing.Report{}, err
	}
	return billing.Report{CampaignID: campaignID, Impressions: 1234, Reach: 1100, Spend: 2_468_000}, nil
}

func (goldenBackend) PotentialReach(_ context.Context, advertiser string, _ audience.Spec) (int, error) {
	if err := goldenRefusal(advertiser); err != nil {
		return 0, err
	}
	return 1200, nil
}

// SearchAttributes answers two attributes for any query but the empty one.
func (goldenBackend) SearchAttributes(q string) []*attr.Attribute {
	if q == "" {
		return nil
	}
	return []*attr.Attribute{
		{ID: "platform.music.jazz", Name: "Jazz", Category: "Music", Source: attr.SourcePlatform, Kind: attr.Binary},
		{ID: "partner.net_worth", Name: "Net worth", Category: "Financial", Source: attr.SourcePartner, Broker: "Acxiom", Kind: attr.Categorical, Values: []string{"under_1m", "over_2m"}},
	}
}

// goldenCompactor compacts at LSN 42, or fails with err.
type goldenCompactor struct{ err error }

func (c goldenCompactor) Compact() (uint64, error) { return 42, c.err }

// goldenClusterAdmin answers the membership routes with fixed values. Like
// the backend it refuses "ghost" and is unreachable at "down" (and at slots
// 9 and 8); fail makes the two argument-free mutations refuse.
type goldenClusterAdmin struct{ fail bool }

func (goldenClusterAdmin) Status() ClusterStatusResponse {
	return ClusterStatusResponse{
		Version: 3,
		Slots: []ClusterSlotStatus{
			{Slot: 0, Addr: "http://a:1", Replicas: []string{"http://a2:1"}, Healthy: true},
			{Slot: 1, Addr: "http://b:1"},
		},
		PendingRemovals: 1,
		LastReshard:     &ReshardReportWire{UsersMoved: 12, CutoverMS: 0.5, Version: 3},
	}
}

func (goldenClusterAdmin) AddShard(addr string, replicas []string) (ReshardReportWire, error) {
	if err := goldenRefusal(addr); err != nil {
		return ReshardReportWire{}, err
	}
	return ReshardReportWire{UsersMoved: 7 + len(replicas), CutoverMS: 9.4, Version: 4}, nil
}

func (a goldenClusterAdmin) RemoveShard() (ReshardReportWire, error) {
	if a.fail {
		return ReshardReportWire{}, errors.New("golden: cannot shrink below one shard")
	}
	return ReshardReportWire{UsersMoved: 7, Version: 5}, nil
}

func (goldenClusterAdmin) Promote(slot int, force bool) (PromoteResponse, error) {
	switch slot {
	case 9:
		return PromoteResponse{}, goldenRefusal("ghost")
	case 8:
		return PromoteResponse{}, goldenRefusal("down")
	}
	if !force {
		return PromoteResponse{Slot: slot, Member: 1}, nil
	}
	return PromoteResponse{Slot: slot, Member: 1, Addr: "http://a2:1", Version: 4}, nil
}

func (a goldenClusterAdmin) ResumeReshard() error {
	if a.fail {
		return errors.New("golden: no reshard pending")
	}
	return nil
}

// goldenCase is one request of the public wire and the answer it gets. srv
// names the server that answers it: "open" (no auth, compactor and cluster
// admin set), "bare" (no auth, neither set), "failing" (compactor and
// cluster admin that refuse), "auth" (authentication on, no token sent)
// and "token" (authentication on, the token of acme or of the operator
// sent).
type goldenCase struct {
	srv, method, target, body string
	status                    int
	// header lists the response's Content-Type, and its Retry-After and
	// Cache-Control when set, as "name: value" lines.
	header, resp string
}

const (
	jsonCT  = "Content-Type: application/json"
	retry   = jsonCT + "\nRetry-After: 1"
	errDown = `{"error":"golden: \"down\": golden: shard unavailable"}`
	campOK  = `{"spec":{"include":["aud-000001"],"expr":"attr(platform.music.jazz) AND age(18, 65)"},"bid_cap_usd":5,"creative":{"headline":"h","body":"b"},"frequency_cap":1,"budget_usd":2.5}`
)

var goldenCases = []goldenCase{
	// Registration.
	{"open", "POST", "/api/v1/advertisers", `{"name":"acme"}`, 201, jsonCT, `{"name":"acme"}`},
	{"open", "POST", "/api/v1/advertisers", `{"name":"ghost"}`, 409, jsonCT, `{"error":"golden: no such \"ghost\""}`},
	{"open", "POST", "/api/v1/advertisers", `{"name":"down"}`, 503, retry, errDown},
	{"open", "POST", "/api/v1/advertisers", `{not json`, 400, jsonCT, `{"error":"httpapi: bad request body: invalid character 'n' looking for beginning of object key string"}`},
	{"open", "POST", "/api/v1/advertisers", `{"name":"x","bogus":1}`, 400, jsonCT, `{"error":"httpapi: bad request body: json: unknown field \"bogus\""}`},
	{"open", "POST", "/api/v1/advertisers", ``, 400, jsonCT, `{"error":"httpapi: bad request body: EOF"}`},

	// Campaigns.
	{"open", "POST", "/api/v1/advertisers/acme/campaigns", campOK, 201, jsonCT, `{"campaign_id":"camp-000007"}`},
	{"open", "POST", "/api/v1/advertisers/acme/campaigns", `{"spec":{"expr":"age("},"bid_cap_usd":5,"creative":{"body":"b"}}`, 400, jsonCT, `{"error":"httpapi: bad expr: attr: parse error at offset 4: unterminated argument list for \"age\""}`},
	{"open", "POST", "/api/v1/advertisers/acme/campaigns", `{"spec":{},"bid_cap_usd":5,"creative":{"body":"rejected"}}`, 422, jsonCT, `{"error":"golden: ad rejected by policy review: reasons [personal attribute]"}`},
	{"open", "POST", "/api/v1/advertisers/ghost/campaigns", `{"spec":{},"bid_cap_usd":5,"creative":{"body":"b"}}`, 400, jsonCT, `{"error":"golden: no such \"ghost\""}`},
	{"open", "POST", "/api/v1/advertisers/down/campaigns", `{"spec":{},"bid_cap_usd":5,"creative":{"body":"b"}}`, 503, retry, errDown},
	{"open", "POST", "/api/v1/advertisers/acme/campaigns", `{"spec":{},"bid":5}`, 400, jsonCT, `{"error":"httpapi: bad request body: json: unknown field \"bid\""}`},
	{"auth", "POST", "/api/v1/advertisers/acme/campaigns", campOK, 401, jsonCT, `{"error":"httpapi: missing or invalid API token for advertiser \"acme\""}`},
	{"token", "POST", "/api/v1/advertisers/acme/campaigns", campOK, 201, jsonCT, `{"campaign_id":"camp-000007"}`},
	{"open", "POST", "/api/v1/advertisers/acme/campaigns/camp-000007/pause", ``, 200, jsonCT, `{"paused":true}`},
	{"open", "POST", "/api/v1/advertisers/acme/campaigns/ghost/pause", ``, 404, jsonCT, `{"error":"golden: no such \"ghost\""}`},
	{"open", "POST", "/api/v1/advertisers/acme/campaigns/down/pause", ``, 503, retry, errDown},
	{"auth", "POST", "/api/v1/advertisers/acme/campaigns/camp-000007/pause", ``, 401, jsonCT, `{"error":"httpapi: missing or invalid API token for advertiser \"acme\""}`},
	{"token", "POST", "/api/v1/advertisers/acme/campaigns/camp-000007/pause", ``, 200, jsonCT, `{"paused":true}`},
	{"open", "GET", "/api/v1/advertisers/acme/campaigns/camp-000007/report", ``, 200, jsonCT, `{"campaign_id":"camp-000007","impressions":1234,"reach":1100,"spend_usd":2.468}`},
	{"open", "GET", "/api/v1/advertisers/ghost/campaigns/camp-000007/report", ``, 404, jsonCT, `{"error":"golden: no such \"ghost\""}`},
	{"open", "GET", "/api/v1/advertisers/acme/campaigns/down/report", ``, 503, retry, errDown},
	{"auth", "GET", "/api/v1/advertisers/acme/campaigns/camp-000007/report", ``, 401, jsonCT, `{"error":"httpapi: missing or invalid API token for advertiser \"acme\""}`},

	// Audiences.
	{"open", "POST", "/api/v1/advertisers/acme/audiences/pii", `{"name":"list","keys":[{"type":"email","hash":"ab12"}]}`, 201, jsonCT, `{"audience_id":"aud-000001"}`},
	{"open", "POST", "/api/v1/advertisers/acme/audiences/pii", `{"name":"list","keys":[{"type":"ssn","hash":"ab12"}]}`, 400, jsonCT, `{"error":"httpapi: unknown PII type \"ssn\""}`},
	{"open", "POST", "/api/v1/advertisers/acme/audiences/website", `{"name":"site","pixel_id":"px-000003"}`, 201, jsonCT, `{"audience_id":"aud-000002"}`},
	{"open", "POST", "/api/v1/advertisers/acme/audiences/website", `{"name":"site","page_id":"p"}`, 400, jsonCT, `{"error":"httpapi: bad request body: json: unknown field \"page_id\""}`},
	{"open", "POST", "/api/v1/advertisers/acme/audiences/engagement", `{"name":"fans","page_id":"page-x"}`, 201, jsonCT, `{"audience_id":"aud-000003"}`},
	{"open", "POST", "/api/v1/advertisers/ghost/audiences/engagement", `{"name":"fans","page_id":"page-x"}`, 400, jsonCT, `{"error":"golden: no such \"ghost\""}`},
	{"open", "POST", "/api/v1/advertisers/acme/audiences/affinity", `{"name":"jazz","phrases":["jazz"]}`, 201, jsonCT, `{"audience_id":"aud-000004"}`},
	{"open", "POST", "/api/v1/advertisers/down/audiences/affinity", `{"name":"jazz","phrases":["jazz"]}`, 503, retry, errDown},
	{"open", "POST", "/api/v1/advertisers/acme/audiences/lookalike", `{"name":"like","seed":"aud-000001","overlap":0.5}`, 201, jsonCT, `{"audience_id":"aud-000005"}`},
	{"auth", "POST", "/api/v1/advertisers/acme/audiences/lookalike", `{"name":"like","seed":"aud-000001"}`, 401, jsonCT, `{"error":"httpapi: missing or invalid API token for advertiser \"acme\""}`},

	// Pixels and reach.
	{"open", "POST", "/api/v1/advertisers/acme/pixels", ``, 201, jsonCT, `{"pixel_id":"px-000003"}`},
	{"open", "POST", "/api/v1/advertisers/ghost/pixels", ``, 400, jsonCT, `{"error":"golden: no such \"ghost\""}`},
	{"open", "POST", "/api/v1/advertisers/down/pixels", ``, 503, retry, errDown},
	{"auth", "POST", "/api/v1/advertisers/acme/pixels", ``, 401, jsonCT, `{"error":"httpapi: missing or invalid API token for advertiser \"acme\""}`},
	{"open", "POST", "/api/v1/advertisers/acme/reach", `{"spec":{"include_all":["aud-000003"],"expr":"attr(platform.music.jazz)"}}`, 200, jsonCT, `{"reach":1200}`},
	{"open", "POST", "/api/v1/advertisers/acme/reach", `{"spec":{"expr":"boom("}}`, 400, jsonCT, `{"error":"httpapi: bad expr: attr: parse error at offset 5: unterminated argument list for \"boom\""}`},
	{"open", "POST", "/api/v1/advertisers/ghost/reach", `{"spec":{}}`, 400, jsonCT, `{"error":"golden: no such \"ghost\""}`},
	{"open", "POST", "/api/v1/advertisers/down/reach", `{"spec":{}}`, 503, retry, errDown},
	{"auth", "POST", "/api/v1/advertisers/acme/reach", `{"spec":{}}`, 401, jsonCT, `{"error":"httpapi: missing or invalid API token for advertiser \"acme\""}`},
	{"open", "GET", "/api/v1/attributes?q=jazz", ``, 200, jsonCT, `[{"id":"platform.music.jazz","name":"Jazz","category":"Music","source":"platform","kind":"binary"},{"id":"partner.net_worth","name":"Net worth","category":"Financial","source":"partner","broker":"Acxiom","kind":"categorical","values":["under_1m","over_2m"]}]`},
	{"open", "GET", "/api/v1/attributes", ``, 200, jsonCT, `[]`},
	{"auth", "GET", "/api/v1/attributes?q=jazz+club", ``, 200, jsonCT, `[{"id":"platform.music.jazz","name":"Jazz","category":"Music","source":"platform","kind":"binary"},{"id":"partner.net_worth","name":"Net worth","category":"Financial","source":"partner","broker":"Acxiom","kind":"categorical","values":["under_1m","over_2m"]}]`},

	// The user API.
	{"open", "POST", "/api/v1/users/user-000042/browse?slots=3", ``, 200, jsonCT, `[{"campaign_id":"camp-000007","advertiser":"acme","creative":{"headline":"H","body":"B"},"slot":3}]`},
	{"open", "POST", "/api/v1/users/user-000042/browse", ``, 200, jsonCT, `[{"campaign_id":"camp-000007","advertiser":"acme","creative":{"headline":"H","body":"B"},"slot":10}]`},
	{"auth", "POST", "/api/v1/users/user-000042/browse?slots=0", ``, 200, jsonCT, `[{"campaign_id":"camp-000007","advertiser":"acme","creative":{"headline":"H","body":"B"},"slot":0}]`},
	{"open", "POST", "/api/v1/users/user-000042/browse?slots=abc", ``, 400, jsonCT, `{"error":"httpapi: bad slots \"abc\""}`},
	{"open", "POST", "/api/v1/users/user-000042/browse?slots=-1", ``, 400, jsonCT, `{"error":"httpapi: bad slots \"-1\""}`},
	{"open", "POST", "/api/v1/users/user-000042/browse?slots=10001", ``, 400, jsonCT, `{"error":"httpapi: bad slots \"10001\""}`},
	{"open", "POST", "/api/v1/users/ghost/browse?slots=3", ``, 404, jsonCT, `{"error":"golden: no such \"ghost\""}`},
	{"open", "POST", "/api/v1/users/down/browse?slots=3", ``, 503, retry, errDown},
	{"open", "GET", "/api/v1/users/user-000042/feed", ``, 200, jsonCT, `[{"campaign_id":"camp-000007","advertiser":"acme","creative":{"headline":"H","body":"B","landing_url":"https://acme.example"},"slot":0},{"campaign_id":"camp-000008","advertiser":"acme","creative":{"body":""},"slot":1}]`},
	{"open", "GET", "/api/v1/users/new/feed", ``, 200, jsonCT, `[]`},
	{"open", "GET", "/api/v1/users/ghost/feed", ``, 404, jsonCT, `{"error":"golden: no such \"ghost\""}`},
	{"open", "GET", "/api/v1/users/down/feed", ``, 503, retry, errDown},
	{"open", "GET", "/api/v1/users/user-000042/adpreferences", ``, 200, jsonCT, `{"attributes":["platform.hobbies_and_activities.salsa_dance","partner.net_worth.over_2m"]}`},
	{"open", "GET", "/api/v1/users/ghost/adpreferences", ``, 404, jsonCT, `{"error":"golden: no such \"ghost\""}`},
	{"open", "GET", "/api/v1/users/down/adpreferences", ``, 503, retry, errDown},
	{"open", "GET", "/api/v1/users/user-000042/advertisers", ``, 200, jsonCT, `{"advertisers":["acme","retargeter"]}`},
	{"open", "GET", "/api/v1/users/ghost/advertisers", ``, 404, jsonCT, `{"error":"golden: no such \"ghost\""}`},
	{"open", "GET", "/api/v1/users/down/advertisers", ``, 503, retry, errDown},
	{"open", "POST", "/api/v1/users/user-000042/likes", `{"page_id":"page-x"}`, 200, jsonCT, `{"liked":true}`},
	{"open", "POST", "/api/v1/users/user-000042/likes", `{"page":"page-x"}`, 400, jsonCT, `{"error":"httpapi: bad request body: json: unknown field \"page\""}`},
	{"open", "POST", "/api/v1/users/ghost/likes", `{"page_id":"page-x"}`, 404, jsonCT, `{"error":"golden: no such \"ghost\""}`},
	{"open", "POST", "/api/v1/users/down/likes", `{"page_id":"page-x"}`, 503, retry, errDown},
	{"open", "POST", "/api/v1/users/user-000042/explain", `{"campaign_id":"camp-000007","advertiser":"acme","creative":{"headline":"H","body":"B"},"slot":2}`, 200, jsonCT, `{"attribute":"platform.hobbies_and_activities.salsa_dance","text":"You're interested in salsa dance."}`},
	{"open", "POST", "/api/v1/users/user-000042/explain", `[]`, 400, jsonCT, `{"error":"httpapi: bad request body: json: cannot unmarshal array into Go value of type httpapi.ImpressionWire"}`},
	{"open", "POST", "/api/v1/users/user-000042/explain", `{"campaign_id":"ghost","advertiser":"acme","creative":{"headline":"","body":""},"slot":0}`, 404, jsonCT, `{"error":"golden: no such \"ghost\""}`},
	{"open", "POST", "/api/v1/users/down/explain", `{"campaign_id":"camp-000007","advertiser":"acme","creative":{"headline":"","body":""},"slot":0}`, 503, retry, errDown},

	// The tracking pixel.
	{"open", "GET", "/pixel/px-000003?uid=user-000042", ``, 200, "Content-Type: image/gif\nCache-Control: no-store", string(transparentPixelGIF)},
	{"auth", "GET", "/pixel/px-000003?uid=user-000042", ``, 200, "Content-Type: image/gif\nCache-Control: no-store", string(transparentPixelGIF)},
	{"open", "GET", "/pixel/px-000003", ``, 400, jsonCT, `{"error":"httpapi: pixel fire without uid (no platform session)"}`},
	{"open", "GET", "/pixel/ghost?uid=user-000042", ``, 404, jsonCT, `{"error":"golden: no such \"ghost\""}`},
	{"open", "GET", "/pixel/px-000003?uid=down", ``, 503, retry, errDown},

	// Compaction.
	{"open", "POST", "/admin/v1/compact", ``, 200, jsonCT, `{"snapshot_lsn":42}`},
	{"bare", "POST", "/admin/v1/compact", ``, 404, jsonCT, `{"error":"httpapi: no journal configured (run with -journal)"}`},
	{"failing", "POST", "/admin/v1/compact", ``, 500, jsonCT, `{"error":"golden: disk full"}`},
	{"auth", "POST", "/admin/v1/compact", ``, 401, jsonCT, `{"error":"httpapi: missing or invalid admin token"}`},
	{"token", "POST", "/admin/v1/compact", ``, 200, jsonCT, `{"snapshot_lsn":42}`},

	// Membership.
	{"open", "GET", "/admin/v1/cluster", ``, 200, jsonCT, `{"version":3,"slots":[{"slot":0,"addr":"http://a:1","replicas":["http://a2:1"],"healthy":true},{"slot":1,"addr":"http://b:1","healthy":false}],"migration_active":false,"pending_removals":1,"last_reshard":{"users_moved":12,"cutover_ms":0.5,"version":3}}`},
	{"bare", "GET", "/admin/v1/cluster", ``, 404, jsonCT, `{"error":"httpapi: no dynamic membership on this server (run as a router with -peers)"}`},
	{"auth", "GET", "/admin/v1/cluster", ``, 401, jsonCT, `{"error":"httpapi: missing or invalid admin token"}`},
	{"token", "GET", "/admin/v1/cluster", ``, 200, jsonCT, `{"version":3,"slots":[{"slot":0,"addr":"http://a:1","replicas":["http://a2:1"],"healthy":true},{"slot":1,"addr":"http://b:1","healthy":false}],"migration_active":false,"pending_removals":1,"last_reshard":{"users_moved":12,"cutover_ms":0.5,"version":3}}`},
	{"open", "POST", "/admin/v1/cluster/shards", `{"addr":"http://c:1","replicas":["http://c2:1"]}`, 200, jsonCT, `{"users_moved":8,"cutover_ms":9.4,"version":4}`},
	{"open", "POST", "/admin/v1/cluster/shards", `{}`, 400, jsonCT, `{"error":"httpapi: add shard without addr"}`},
	{"open", "POST", "/admin/v1/cluster/shards", `{"addr":7}`, 400, jsonCT, `{"error":"httpapi: bad request body: json: cannot unmarshal number into Go struct field AddShardRequest.addr of type string"}`},
	{"open", "POST", "/admin/v1/cluster/shards", `{"addr":"ghost"}`, 409, jsonCT, `{"error":"golden: no such \"ghost\""}`},
	{"open", "POST", "/admin/v1/cluster/shards", `{"addr":"down"}`, 503, retry, errDown},
	{"bare", "POST", "/admin/v1/cluster/shards", `{not json`, 404, jsonCT, `{"error":"httpapi: no dynamic membership on this server (run as a router with -peers)"}`},
	{"auth", "POST", "/admin/v1/cluster/shards", `{not json`, 401, jsonCT, `{"error":"httpapi: missing or invalid admin token"}`},
	{"open", "DELETE", "/admin/v1/cluster/shards", ``, 200, jsonCT, `{"users_moved":7,"cutover_ms":0,"version":5}`},
	{"failing", "DELETE", "/admin/v1/cluster/shards", ``, 409, jsonCT, `{"error":"golden: cannot shrink below one shard"}`},
	{"bare", "DELETE", "/admin/v1/cluster/shards", ``, 404, jsonCT, `{"error":"httpapi: no dynamic membership on this server (run as a router with -peers)"}`},
	{"open", "POST", "/admin/v1/cluster/promote", `{"slot":1}`, 200, jsonCT, `{"slot":1,"member":1}`},
	{"open", "POST", "/admin/v1/cluster/promote", `{"slot":0,"force":true}`, 200, jsonCT, `{"slot":0,"member":1,"addr":"http://a2:1","version":4}`},
	{"open", "POST", "/admin/v1/cluster/promote", `{"slot":9}`, 409, jsonCT, `{"error":"golden: no such \"ghost\""}`},
	{"open", "POST", "/admin/v1/cluster/promote", `{"slot":8}`, 503, retry, errDown},
	{"open", "POST", "/admin/v1/cluster/promote", `{"slot":"0"}`, 400, jsonCT, `{"error":"httpapi: bad request body: json: cannot unmarshal string into Go struct field PromoteRequest.slot of type int"}`},
	{"bare", "POST", "/admin/v1/cluster/promote", `{"slot":1}`, 404, jsonCT, `{"error":"httpapi: no dynamic membership on this server (run as a router with -peers)"}`},
	{"open", "POST", "/admin/v1/cluster/resume", ``, 200, jsonCT, `{"resumed":true}`},
	{"failing", "POST", "/admin/v1/cluster/resume", ``, 409, jsonCT, `{"error":"golden: no reshard pending"}`},
	{"bare", "POST", "/admin/v1/cluster/resume", ``, 404, jsonCT, `{"error":"httpapi: no dynamic membership on this server (run as a router with -peers)"}`},
	{"auth", "POST", "/admin/v1/cluster/resume", ``, 401, jsonCT, `{"error":"httpapi: missing or invalid admin token"}`},
}

// goldenServers builds the servers goldenCase.srv names, and the bearer
// token a "token" case sends for target.
func goldenServers(t *testing.T) (map[string]http.Handler, func(target string) string) {
	open := NewServer(goldenBackend{}, nil)
	open.SetCompactor(goldenCompactor{})
	open.SetClusterAdmin(goldenClusterAdmin{})
	failing := NewServer(goldenBackend{}, nil)
	failing.SetCompactor(goldenCompactor{err: errors.New("golden: disk full")})
	failing.SetClusterAdmin(goldenClusterAdmin{fail: true})
	authed, auth := NewServerWithAuth(goldenBackend{}, nil)
	authed.SetCompactor(goldenCompactor{})
	authed.SetClusterAdmin(goldenClusterAdmin{})
	advTok, err := auth.Issue("acme")
	if err != nil {
		t.Fatal(err)
	}
	adminTok, err := auth.Issue("admin")
	if err != nil {
		t.Fatal(err)
	}
	token := func(target string) string {
		if strings.HasPrefix(target, "/admin/") {
			return adminTok
		}
		return advTok
	}
	return map[string]http.Handler{
		"open": open, "bare": NewServer(goldenBackend{}, nil), "failing": failing,
		"auth": authed, "token": authed,
	}, token
}

// TestPublicWireGoldenBytes pins the public API's wire: for every route,
// for a success and for each class of error it answers, the status, the
// response headers a client reads and the response body, byte for byte,
// answering the request bytes of the case.
func TestPublicWireGoldenBytes(t *testing.T) {
	servers, token := goldenServers(t)
	for _, c := range goldenCases {
		req := httptest.NewRequest(c.method, c.target, strings.NewReader(c.body))
		if c.srv == "token" {
			req.Header.Set("Authorization", "Bearer "+token(c.target))
		}
		rec := httptest.NewRecorder()
		servers[c.srv].ServeHTTP(rec, req)
		header := "Content-Type: " + rec.Header().Get("Content-Type")
		for _, h := range []string{"Retry-After", "Cache-Control"} {
			if v := rec.Header().Get(h); v != "" {
				header += "\n" + h + ": " + v
			}
		}
		name := c.srv + " " + c.method + " " + c.target + " " + c.body
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d", name, rec.Code, c.status)
		}
		if header != c.header {
			t.Errorf("%s: headers\n got %q\nwant %q", name, header, c.header)
		}
		// A JSON body is one value and the newline its encoder ends it with.
		want := c.resp
		if strings.HasPrefix(c.header, jsonCT) {
			want += "\n"
		}
		if got := rec.Body.String(); got != want {
			t.Errorf("%s: response\n got %q\nwant %q", name, got, want)
		}
	}
}
