package rpc

import (
	"context"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// Scope is the one fact about an op that client, server and coordinator
// must agree on: who serves it, and therefore whether it may be re-executed
// and which ownership check guards it.
type Scope uint8

const (
	// UserRead is served by any member of the user's slot; the server
	// checks OwnsUser, the client retries it.
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
	// Idempotent ops get the client's retries; the others are
	// resent only when the connection was refused before the request left.
	Idempotent bool
}

// Op is a table row together with its request and response types. A client
// sends it with Do, the Server registers its handler with serve.
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

// The op table. Each op is written down here and nowhere else: Do sends it
// (cluster.RemoteShard is its one typed caller), Server.register serves it,
// and the cluster coordinator routes the user-scoped ones by the same Scope.
var (
	OpAddUser       = declareUser[AddUserReq, empty]("adduser", UserWrite)
	OpUser          = declareUser[UserIDReq, UserResp]("user", UserRead)
	OpBrowse        = declareUser[BrowseReq, ImpressionsResp]("browse", UserWrite)
	OpFeed          = declareUser[UserIDReq, ImpressionsResp]("feed", UserRead)
	OpVisit         = declareUser[VisitReq, empty]("visit", UserWrite)
	OpLike          = declareUser[LikeReq, empty]("like", UserWrite)
	OpAdPreferences = declareUser[UserIDReq, httpapi.PreferencesResponse]("adpreferences", UserRead)
	OpAdvertisers   = declareUser[UserIDReq, NamesResp]("advertisers", UserRead)
	OpExplain       = declareUser[ExplainReq, httpapi.ExplanationWire]("explain", UserRead)

	OpRegister       = declare[httpapi.RegisterAdvertiserRequest, empty]("register", Replicated)
	OpCreateCampaign = declare[CreateCampaignReq, httpapi.CreateCampaignResponse]("createcampaign", Replicated)
	OpPauseCampaign  = declare[CampaignReq, empty]("pausecampaign", Replicated)
	// One audience-creating op per kind, indexed by it: five wire names,
	// one request type, one handler.
	OpCreateAudience = [...]Op[CreateAudienceReq, httpapi.AudienceResponse]{
		audience.KindPII:        declare[CreateAudienceReq, httpapi.AudienceResponse]("createpiiaudience", Replicated),
		audience.KindWebsite:    declare[CreateAudienceReq, httpapi.AudienceResponse]("createwebsiteaudience", Replicated),
		audience.KindEngagement: declare[CreateAudienceReq, httpapi.AudienceResponse]("createengagementaudience", Replicated),
		audience.KindAffinity:   declare[CreateAudienceReq, httpapi.AudienceResponse]("createaffinityaudience", Replicated),
		audience.KindLookalike:  declare[CreateAudienceReq, httpapi.AudienceResponse]("createlookalikeaudience", Replicated),
	}
	OpIssuePixel = declare[AdvertiserReq, httpapi.PixelResponse]("issuepixel", Replicated)

	OpUsers          = declare[empty, UsersResp]("users", Gathered)
	OpRawReach       = declare[RawReachReq, RawReachResp]("rawreach", Gathered)
	OpCampaignTotals = declare[CampaignReq, CampaignTotalsResp]("campaigntotals", Gathered)

	// import/remove/install replace state (re-executing them converges) and
	// rearm replaces the whole chain, so they retry; shipop is strictly
	// ordered — the follower's gap check treats a duplicate LSN as divergence.
	OpExportUsers  = declare[ExportUsersReq, ChunkResp]("exportusers", Control)
	OpImportUsers  = declare[ImportUsersReq, empty]("importusers", Control)
	OpRemoveUsers  = declare[RemoveUsersReq, empty]("removeusers", Control)
	OpInstallState = declare[InstallStateReq, empty]("installstate", Control)
	OpSyncState    = declare[SyncStateReq, SyncStateResp]("syncstate", Control)
	OpShipOp       = declare[ShipOpReq, empty]("shipop", Control).once()
	OpBeginFollow  = declare[FollowReq, empty]("beginfollow", Control)
	OpEndFollow    = declare[empty, empty]("endfollow", Control)
	OpRearm        = declare[RearmReq, empty]("rearm", Control)
	OpRing         = declare[empty, RingInfo]("ring", Control)
	OpSetRing      = declare[RingInfo, empty]("setring", Control)
	OpTraceSpans   = declare[empty, TraceSpansResp]("tracespans", Control)
)

// Do sends one op and returns its answer: the retry policy, span
// name and error label come from the row. A failed call returns the zero
// Resp — a half-decoded answer is no answer.
func Do[Req, Resp any](ctx context.Context, c *Client, op Op[Req, Resp], req Req) (Resp, error) {
	var resp Resp
	var in, out any = req, &resp
	if _, none := in.(empty); none {
		in = nil
	}
	if _, none := out.(*empty); none {
		out = nil
	}
	if err := c.Call(ctx, op.Name, op.Idempotent, in, out); err != nil {
		var zero Resp
		return zero, err
	}
	return resp, nil
}

// The five typed ops benchmark/shims.go calls with its own context;
// cluster.RemoteShard forwards to them, so each op still has one typed
// client.

// VisitPage records a pixel fire.
func (c *Client) VisitPage(ctx context.Context, uid profile.UserID, px pixel.PixelID) error {
	_, err := Do(ctx, c, OpVisit, VisitReq{UserID: string(uid), PixelID: string(px)})
	return err
}

// LikePage records a page like.
func (c *Client) LikePage(ctx context.Context, uid profile.UserID, pageID string) error {
	_, err := Do(ctx, c, OpLike, LikeReq{UserID: string(uid), PageID: pageID})
	return err
}

// AdPreferences returns the user's transparency-page attributes.
func (c *Client) AdPreferences(ctx context.Context, uid profile.UserID) ([]attr.ID, error) {
	resp, err := Do(ctx, c, OpAdPreferences, UserIDReq{UserID: string(uid)})
	return toAttrIDs(resp.Attributes), err
}

// CreateCampaign registers a campaign and returns the shard-minted ID.
func (c *Client) CreateCampaign(ctx context.Context, advertiser string, params platform.CampaignParams) (string, error) {
	resp, err := Do(ctx, c, OpCreateCampaign, CreateCampaignReq{Advertiser: advertiser, Params: FromCampaignParams(params)})
	return resp.CampaignID, err
}

// PauseCampaign pauses a campaign.
func (c *Client) PauseCampaign(ctx context.Context, advertiser, campaignID string) error {
	_, err := Do(ctx, c, OpPauseCampaign, CampaignReq{Advertiser: advertiser, CampaignID: campaignID})
	return err
}
