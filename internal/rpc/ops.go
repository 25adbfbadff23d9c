package rpc

import (
	"context"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/explain"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/trace"
)

// Scope is the one fact about an op that client, server and coordinator
// must agree on: who serves it, and therefore whether it may be re-executed
// and which ownership check guards it.
type Scope uint8

const (
	// UserRead is served by any member of the user's slot; the server
	// checks OwnsUser, the client retries and hedges it.
	UserRead Scope = iota
	// UserWrite is served by the slot's owner only, under the coordinator's
	// reshard fence; the server checks OwnsUserWrite, the client sends it
	// once (a retried browse — auctions, spend — is a double bill).
	UserWrite
	// Replicated is an advertiser mutation the coordinator applies to every
	// slot's owner in one order; sent once, no ownership check.
	Replicated
	// Gathered is a read the coordinator runs on every slot and merges.
	Gathered
	// Control is membership, migration, replication and diagnostics. These
	// are replace operations or reads, so they retry — unless declared once.
	Control
)

// OpInfo is one row of the op table.
type OpInfo struct {
	// Name is the wire name: the last path segment of the endpoint, the
	// suffix of the span names and the op label of the server's metrics.
	Name  string
	Scope Scope
	// Idempotent ops get the client's retries and hedges; the others are
	// resent only when the connection was refused before the request left.
	Idempotent bool
}

// Op is a table row together with its request and response types. Client
// methods send it with callOp, the Server registers its handler with serve.
type Op[Req, Resp any] struct {
	*OpInfo
	// user reads the user key from a user-scoped request, for the gate.
	user func(*Req) string
}

// table lists every declared op, in declaration order.
var table []*OpInfo

func declare[Req, Resp any](name string, scope Scope) Op[Req, Resp] {
	info := &OpInfo{Name: name, Scope: scope, Idempotent: scope != UserWrite && scope != Replicated}
	table = append(table, info)
	return Op[Req, Resp]{OpInfo: info}
}

// ReadOps names the read surface — user reads, gathered reads, the health
// probe: what a fault-injecting network may deliver twice and change nothing.
func ReadOps() map[string]bool {
	ops := map[string]bool{healthOp: true}
	for _, op := range table {
		if op.Scope == UserRead || op.Scope == Gathered {
			ops[op.Name] = true
		}
	}
	return ops
}

// userKeyed is a request addressed to one user.
type userKeyed interface{ userKey() string }

func (r UserIDReq) userKey() string  { return r.UserID }
func (r AddUserReq) userKey() string { return string(r.Profile.ID) }
func (r BrowseReq) userKey() string  { return r.UserID }
func (r VisitReq) userKey() string   { return r.UserID }
func (r LikeReq) userKey() string    { return r.UserID }
func (r ExplainReq) userKey() string { return r.UserID }

func declareUser[Req userKeyed, Resp any](name string, scope Scope) Op[Req, Resp] {
	op := declare[Req, Resp](name, scope)
	op.user = func(r *Req) string { return (*r).userKey() }
	return op
}

// once marks an op of an idempotent scope as never re-sent.
func (o Op[Req, Resp]) once() Op[Req, Resp] {
	o.Idempotent = false
	return o
}

// The op table. Each op is written down here and nowhere else: the typed
// Client method below sends it, Server.register serves it, and the cluster
// coordinator routes the user-scoped ones by the same Scope.
var (
	OpAddUser       = declareUser[AddUserReq, empty]("adduser", UserWrite)
	OpUser          = declareUser[UserIDReq, UserResp]("user", UserRead)
	OpBrowse        = declareUser[BrowseReq, ImpressionsResp]("browse", UserWrite)
	OpFeed          = declareUser[UserIDReq, ImpressionsResp]("feed", UserRead)
	OpVisit         = declareUser[VisitReq, empty]("visit", UserWrite)
	OpLike          = declareUser[LikeReq, empty]("like", UserWrite)
	OpAdPreferences = declareUser[UserIDReq, AttrIDsResp]("adpreferences", UserRead)
	OpAdvertisers   = declareUser[UserIDReq, NamesResp]("advertisers", UserRead)
	OpExplain       = declareUser[ExplainReq, ExplainResp]("explain", UserRead)

	opRegister                 = declare[RegisterReq, empty]("register", Replicated)
	opCreateCampaign           = declare[CreateCampaignReq, CampaignIDResp]("createcampaign", Replicated)
	opPauseCampaign            = declare[CampaignReq, empty]("pausecampaign", Replicated)
	opCreatePIIAudience        = declare[CreatePIIAudienceReq, AudienceIDResp]("createpiiaudience", Replicated)
	opCreateWebsiteAudience    = declare[CreateWebsiteAudienceReq, AudienceIDResp]("createwebsiteaudience", Replicated)
	opCreateEngagementAudience = declare[CreateEngagementAudienceReq, AudienceIDResp]("createengagementaudience", Replicated)
	opCreateAffinityAudience   = declare[CreateAffinityAudienceReq, AudienceIDResp]("createaffinityaudience", Replicated)
	opCreateLookalikeAudience  = declare[CreateLookalikeAudienceReq, AudienceIDResp]("createlookalikeaudience", Replicated)
	opIssuePixel               = declare[AdvertiserReq, PixelIDResp]("issuepixel", Replicated)

	opUsers          = declare[empty, UsersResp]("users", Gathered)
	opRawReach       = declare[RawReachReq, RawReachResp]("rawreach", Gathered)
	opCampaignTotals = declare[CampaignReq, CampaignTotalsResp]("campaigntotals", Gathered)

	// import/remove/install replace state (re-executing them converges) and
	// rearm replaces the whole chain, so they retry; shipop is strictly
	// ordered — the follower's gap check treats a duplicate LSN as divergence.
	opExportUsers  = declare[ExportUsersReq, ChunkResp]("exportusers", Control)
	opImportUsers  = declare[ImportUsersReq, empty]("importusers", Control)
	opRemoveUsers  = declare[RemoveUsersReq, empty]("removeusers", Control)
	opInstallState = declare[InstallStateReq, empty]("installstate", Control)
	opSyncState    = declare[SyncStateReq, SyncStateResp]("syncstate", Control)
	opShipOp       = declare[ShipOpReq, empty]("shipop", Control).once()
	opBeginFollow  = declare[FollowReq, empty]("beginfollow", Control)
	opEndFollow    = declare[empty, empty]("endfollow", Control)
	opRearm        = declare[RearmReq, empty]("rearm", Control)
	opRing         = declare[empty, RingInfo]("ring", Control)
	opSetRing      = declare[RingInfo, empty]("setring", Control)
	opTraceSpans   = declare[empty, TraceSpansResp]("tracespans", Control)
)

// callOp sends one op: the retry-and-hedge policy, span name and error label
// come from the declaration. A nil resp discards the answer.
func callOp[Req, Resp any](ctx context.Context, c *Client, op Op[Req, Resp], req Req, resp *Resp) error {
	var in, out any = req, resp
	if _, none := in.(empty); none {
		in = nil
	}
	if resp == nil {
		out = nil
	}
	err := c.Call(ctx, op.Name, op.Idempotent, in, out)
	if err != nil && resp != nil {
		var zero Resp
		*resp = zero // a half-decoded answer is no answer
	}
	return err
}

// Typed operation methods — one per shard op, mirroring the cluster.Shard
// surface; what each may do on a failed attempt is its row's, not theirs.

// AddUser ships a full profile snapshot to the shard.
func (c *Client) AddUser(ctx context.Context, p *profile.Profile) error {
	return callOp(ctx, c, OpAddUser, AddUserReq{Profile: p.Snapshot()}, nil)
}

// User fetches a profile snapshot; nil for an unknown user.
func (c *Client) User(ctx context.Context, uid profile.UserID) (*profile.Profile, error) {
	var resp UserResp
	if err := callOp(ctx, c, OpUser, UserIDReq{UserID: string(uid)}, &resp); err != nil || resp.Profile == nil {
		return nil, err
	}
	return profile.FromState(*resp.Profile)
}

// Users lists every user ID on the shard.
func (c *Client) Users(ctx context.Context) ([]profile.UserID, error) {
	var resp UsersResp
	if err := callOp(ctx, c, opUsers, empty{}, &resp); err != nil || len(resp.Users) == 0 {
		return nil, err
	}
	return toUserIDs(resp.Users), nil
}

// BrowseFeed runs a feed session (auctions, spend — a mutation).
func (c *Client) BrowseFeed(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	var resp ImpressionsResp
	err := callOp(ctx, c, OpBrowse, BrowseReq{UserID: string(uid), Slots: slots}, &resp)
	return toImpressions(resp.Impressions), err
}

// Feed returns the user's accumulated feed; an unknown user is refused.
func (c *Client) Feed(ctx context.Context, uid profile.UserID) ([]ad.Impression, error) {
	var resp ImpressionsResp
	err := callOp(ctx, c, OpFeed, UserIDReq{UserID: string(uid)}, &resp)
	return toImpressions(resp.Impressions), err
}

// VisitPage records a pixel fire.
func (c *Client) VisitPage(ctx context.Context, uid profile.UserID, px pixel.PixelID) error {
	return callOp(ctx, c, OpVisit, VisitReq{UserID: string(uid), PixelID: string(px)}, nil)
}

// LikePage records a page like.
func (c *Client) LikePage(ctx context.Context, uid profile.UserID, pageID string) error {
	return callOp(ctx, c, OpLike, LikeReq{UserID: string(uid), PageID: pageID}, nil)
}

// AdPreferences returns the user's transparency-page attributes.
func (c *Client) AdPreferences(ctx context.Context, uid profile.UserID) ([]attr.ID, error) {
	var resp AttrIDsResp
	err := callOp(ctx, c, OpAdPreferences, UserIDReq{UserID: string(uid)}, &resp)
	return toAttrIDs(resp.Attributes), err
}

// AdvertisersTargetingMe returns the advertisers with the user in an
// active target set.
func (c *Client) AdvertisersTargetingMe(ctx context.Context, uid profile.UserID) ([]string, error) {
	var resp NamesResp
	err := callOp(ctx, c, OpAdvertisers, UserIDReq{UserID: string(uid)}, &resp)
	return resp.Names, err
}

// ExplainImpression asks the shard for the "why am I seeing this?" text.
func (c *Client) ExplainImpression(ctx context.Context, uid profile.UserID, imp ad.Impression) (explain.Explanation, error) {
	var resp ExplainResp
	err := callOp(ctx, c, OpExplain, ExplainReq{UserID: string(uid), Impression: httpapi.FromImpression(imp)}, &resp)
	return explain.Explanation{Attribute: attr.ID(resp.Attribute), Text: resp.Text}, err
}

// RegisterAdvertiser creates the advertiser account.
func (c *Client) RegisterAdvertiser(ctx context.Context, name string) error {
	return callOp(ctx, c, opRegister, RegisterReq{Name: name}, nil)
}

// CreateCampaign registers a campaign and returns the shard-minted ID.
func (c *Client) CreateCampaign(ctx context.Context, advertiser string, params platform.CampaignParams) (string, error) {
	var resp CampaignIDResp
	err := callOp(ctx, c, opCreateCampaign, CreateCampaignReq{Advertiser: advertiser, Params: FromCampaignParams(params)}, &resp)
	return resp.CampaignID, err
}

// PauseCampaign pauses a campaign.
func (c *Client) PauseCampaign(ctx context.Context, advertiser, campaignID string) error {
	return callOp(ctx, c, opPauseCampaign, CampaignReq{Advertiser: advertiser, CampaignID: campaignID}, nil)
}

// CreatePIIAudience uploads hashed match keys.
func (c *Client) CreatePIIAudience(ctx context.Context, advertiser, name string, keys []pii.MatchKey) (audience.AudienceID, error) {
	wire := make([]httpapi.MatchKeyWire, len(keys))
	for i, k := range keys {
		wire[i] = httpapi.FromMatchKey(k)
	}
	var resp AudienceIDResp
	err := callOp(ctx, c, opCreatePIIAudience, CreatePIIAudienceReq{Advertiser: advertiser, Name: name, Keys: wire}, &resp)
	return audience.AudienceID(resp.AudienceID), err
}

// CreateWebsiteAudience builds a pixel-backed audience.
func (c *Client) CreateWebsiteAudience(ctx context.Context, advertiser, name string, px pixel.PixelID) (audience.AudienceID, error) {
	var resp AudienceIDResp
	err := callOp(ctx, c, opCreateWebsiteAudience, CreateWebsiteAudienceReq{Advertiser: advertiser, Name: name, PixelID: string(px)}, &resp)
	return audience.AudienceID(resp.AudienceID), err
}

// CreateEngagementAudience builds a page-like audience.
func (c *Client) CreateEngagementAudience(ctx context.Context, advertiser, name, pageID string) (audience.AudienceID, error) {
	var resp AudienceIDResp
	err := callOp(ctx, c, opCreateEngagementAudience, CreateEngagementAudienceReq{Advertiser: advertiser, Name: name, PageID: pageID}, &resp)
	return audience.AudienceID(resp.AudienceID), err
}

// CreateAffinityAudience builds a keyword audience.
func (c *Client) CreateAffinityAudience(ctx context.Context, advertiser, name string, phrases []string) (audience.AudienceID, error) {
	var resp AudienceIDResp
	err := callOp(ctx, c, opCreateAffinityAudience, CreateAffinityAudienceReq{Advertiser: advertiser, Name: name, Phrases: phrases}, &resp)
	return audience.AudienceID(resp.AudienceID), err
}

// CreateLookalikeAudience derives a similarity audience.
func (c *Client) CreateLookalikeAudience(ctx context.Context, advertiser, name string, seed audience.AudienceID, overlap float64) (audience.AudienceID, error) {
	var resp AudienceIDResp
	req := CreateLookalikeAudienceReq{Advertiser: advertiser, Name: name, Seed: string(seed), Overlap: overlap}
	err := callOp(ctx, c, opCreateLookalikeAudience, req, &resp)
	return audience.AudienceID(resp.AudienceID), err
}

// IssuePixel issues a tracking pixel.
func (c *Client) IssuePixel(ctx context.Context, advertiser string) (pixel.PixelID, error) {
	var resp PixelIDResp
	err := callOp(ctx, c, opIssuePixel, AdvertiserReq{Advertiser: advertiser}, &resp)
	return pixel.PixelID(resp.PixelID), err
}

// RawReach returns the shard's exact pre-threshold match count.
func (c *Client) RawReach(ctx context.Context, advertiser string, spec audience.Spec) (int, error) {
	var resp RawReachResp
	err := callOp(ctx, c, opRawReach, RawReachReq{Advertiser: advertiser, Spec: FromSpec(spec)}, &resp)
	return resp.Count, err
}

// CampaignTotals returns the shard's mergeable campaign totals.
func (c *Client) CampaignTotals(ctx context.Context, advertiser, campaignID string) (platform.CampaignTotals, error) {
	var resp CampaignTotalsResp
	err := callOp(ctx, c, opCampaignTotals, CampaignReq{Advertiser: advertiser, CampaignID: campaignID}, &resp)
	return resp.ToTotals(), err
}

// TraceSpans fetches the peer's completed spans.
func (c *Client) TraceSpans(ctx context.Context) ([]trace.SpanWire, error) {
	var resp TraceSpansResp
	err := callOp(ctx, c, opTraceSpans, empty{}, &resp)
	return resp.Spans, err
}

func toImpressions(ws []httpapi.ImpressionWire) []ad.Impression {
	if len(ws) == 0 {
		return nil
	}
	out := make([]ad.Impression, len(ws))
	for i, w := range ws {
		out[i] = w.ToImpression()
	}
	return out
}
