package cluster

import (
	"context"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/explain"
	"github.com/treads-project/treads/internal/httpapi"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/trace"
)

// RemoteShard adapts an rpc.Client into the Shard interface: it is how a
// Cluster reaches every member, over TCP or an rpc.MemNet — routing,
// replication, divergence detection, and scatter-gather all run over it.
//
// It is the one typed client of the shard wire: each method builds its op's
// request, sends the op table's row through rpc.Do and converts the answer.
// Five ops go through the rpc.Client method of the same name instead, which
// does exactly that and which the benchmark's shims call with their own
// context.
//
// Shard methods whose signatures carry no context run under
// context.Background(); the client's per-call timeout still bounds them.
// The browse, the feed read and the two aggregate reads forward the
// caller's context, so a coordinator deadline cuts off a slow remote call.
type RemoteShard struct {
	c *rpc.Client
}

var (
	_ Shard          = (*RemoteShard)(nil)
	_ HealthReporter = (*RemoteShard)(nil)
)

// NewRemoteShard wraps a peer's RPC client as a Shard.
func NewRemoteShard(c *rpc.Client) *RemoteShard {
	return &RemoteShard{c: c}
}

// Client returns the underlying RPC client (health gating, metrics).
func (r *RemoteShard) Client() *rpc.Client { return r.c }

// Healthy reports whether the peer's circuit breaker admits calls; the
// cluster's routing layer skips or fails fast on unhealthy shards.
func (r *RemoteShard) Healthy() bool { return r.c.Healthy() }

// Close releases the client's pooled connections.
func (r *RemoteShard) Close() error {
	r.c.Close()
	return nil
}

// --- user-scoped operations ---

func (r *RemoteShard) AddUser(p *profile.Profile) error {
	_, err := rpc.Do(context.Background(), r.c, rpc.OpAddUser, rpc.AddUserReq{Profile: p.Snapshot()})
	return err
}

// User returns nil both for an unknown user and for a transport failure —
// the Shard signature has no error channel here, and the cluster's health
// gate is the layer that turns a down peer into a typed error.
func (r *RemoteShard) User(uid profile.UserID) *profile.Profile {
	resp, err := rpc.Do(context.Background(), r.c, rpc.OpUser, rpc.UserIDReq{UserID: string(uid)})
	if err != nil || resp.Profile == nil {
		return nil
	}
	p, _ := profile.FromState(*resp.Profile)
	return p
}

// Users is nil on a transport failure, like User.
func (r *RemoteShard) Users() []profile.UserID {
	ids, _ := r.ListUsers()
	return ids
}

// BrowseFeedCtx forwards the caller's context so a trace started at the
// router propagates to the shard (the rpc client injects traceparent) and
// a coordinator deadline bounds the remote call.
func (r *RemoteShard) BrowseFeedCtx(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	resp, err := rpc.Do(ctx, r.c, rpc.OpBrowse, rpc.BrowseReq{UserID: string(uid), Slots: slots})
	return rpc.ToImpressions(resp.Impressions), err
}

// TraceSpans fetches the peer's completed trace spans so the router can
// stitch cross-process traces when serving the trace dump endpoint.
func (r *RemoteShard) TraceSpans(ctx context.Context) ([]trace.SpanWire, error) {
	resp, err := rpc.Do(ctx, r.c, rpc.OpTraceSpans, struct{}{})
	return resp.Spans, err
}

func (r *RemoteShard) FeedCtx(ctx context.Context, uid profile.UserID) ([]ad.Impression, error) {
	resp, err := rpc.Do(ctx, r.c, rpc.OpFeed, rpc.UserIDReq{UserID: string(uid)})
	return rpc.ToImpressions(resp.Impressions), err
}

func (r *RemoteShard) VisitPage(uid profile.UserID, px pixel.PixelID) error {
	return r.c.VisitPage(context.Background(), uid, px)
}

func (r *RemoteShard) LikePage(uid profile.UserID, pageID string) error {
	return r.c.LikePage(context.Background(), uid, pageID)
}

func (r *RemoteShard) AdPreferences(uid profile.UserID) ([]attr.ID, error) {
	return r.c.AdPreferences(context.Background(), uid)
}

func (r *RemoteShard) AdvertisersTargetingMe(uid profile.UserID) ([]string, error) {
	resp, err := rpc.Do(context.Background(), r.c, rpc.OpAdvertisers, rpc.UserIDReq{UserID: string(uid)})
	return resp.Names, err
}

func (r *RemoteShard) ExplainImpression(uid profile.UserID, imp ad.Impression) (explain.Explanation, error) {
	req := rpc.ExplainReq{UserID: string(uid), Impression: httpapi.FromImpression(imp)}
	resp, err := rpc.Do(context.Background(), r.c, rpc.OpExplain, req)
	return explain.Explanation{Attribute: attr.ID(resp.Attribute), Text: resp.Text}, err
}

// --- advertiser-scoped mutations ---

func (r *RemoteShard) RegisterAdvertiser(name string) error {
	_, err := rpc.Do(context.Background(), r.c, rpc.OpRegister, httpapi.RegisterAdvertiserRequest{Name: name})
	return err
}

func (r *RemoteShard) CreateCampaign(advertiser string, params platform.CampaignParams) (string, error) {
	return r.c.CreateCampaign(context.Background(), advertiser, params)
}

func (r *RemoteShard) PauseCampaign(advertiser, campaignID string) error {
	return r.c.PauseCampaign(context.Background(), advertiser, campaignID)
}

func (r *RemoteShard) CreateAudience(advertiser string, d audience.Def) (audience.AudienceID, error) {
	if err := d.Validate(); err != nil {
		return "", err
	}
	resp, err := rpc.Do(context.Background(), r.c, rpc.OpCreateAudience[d.Kind],
		rpc.CreateAudienceReq{Advertiser: advertiser, AudienceWire: httpapi.FromDef(d)})
	return audience.AudienceID(resp.AudienceID), err
}

func (r *RemoteShard) IssuePixel(advertiser string) (pixel.PixelID, error) {
	resp, err := rpc.Do(context.Background(), r.c, rpc.OpIssuePixel, rpc.AdvertiserReq{Advertiser: advertiser})
	return pixel.PixelID(resp.PixelID), err
}

// --- aggregate reads ---

func (r *RemoteShard) RawReach(ctx context.Context, advertiser string, spec audience.Spec) (int, error) {
	resp, err := rpc.Do(ctx, r.c, rpc.OpRawReach, rpc.RawReachReq{Advertiser: advertiser, Spec: rpc.FromSpec(spec)})
	return resp.Count, err
}

func (r *RemoteShard) CampaignTotals(ctx context.Context, advertiser, campaignID string) (platform.CampaignTotals, error) {
	resp, err := rpc.Do(ctx, r.c, rpc.OpCampaignTotals, rpc.CampaignReq{Advertiser: advertiser, CampaignID: campaignID})
	return resp.ToTotals(), err
}
