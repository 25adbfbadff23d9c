package cluster

import (
	"context"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/explain"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/rpc"
	"github.com/treads-project/treads/internal/trace"
)

// RemoteShard adapts an rpc.Client into the Shard interface, so a Cluster
// coordinates remote shard nodes exactly the way it coordinates in-process
// platforms — routing, replication, divergence detection, and
// scatter-gather all run unchanged over the network.
//
// The attribute catalog is deterministic and compiled into every binary,
// so Catalog and SearchAttributes answer locally instead of shipping the
// catalog over the wire. Everything else round-trips to the peer.
//
// Shard methods whose signatures carry no context run under
// context.Background(); the client's per-call timeout still bounds them.
// The browse, the feed read and the two aggregate reads forward the
// caller's context, so a coordinator deadline cuts off a slow remote call.
type RemoteShard struct {
	c       *rpc.Client
	catalog *attr.Catalog
}

var (
	_ Shard          = (*RemoteShard)(nil)
	_ HealthReporter = (*RemoteShard)(nil)
)

// NewRemoteShard wraps a peer's RPC client as a Shard.
func NewRemoteShard(c *rpc.Client) *RemoteShard {
	return &RemoteShard{c: c, catalog: attr.DefaultCatalog()}
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
	return r.c.AddUser(context.Background(), p)
}

// User returns nil both for an unknown user and for a transport failure —
// the Shard signature has no error channel here, and the cluster's health
// gate is the layer that turns a down peer into a typed error.
func (r *RemoteShard) User(uid profile.UserID) *profile.Profile {
	p, _ := r.c.User(context.Background(), uid)
	return p
}

// Users is nil on a transport failure, like User.
func (r *RemoteShard) Users() []profile.UserID {
	ids, _ := r.c.Users(context.Background())
	return ids
}

// BrowseFeedCtx forwards the caller's context so a trace started at the
// router propagates to the shard (the rpc client injects traceparent) and
// a coordinator deadline bounds the remote call.
func (r *RemoteShard) BrowseFeedCtx(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	return r.c.BrowseFeed(ctx, uid, slots)
}

// TraceSpans fetches the peer's completed trace spans so the router can
// stitch cross-process traces when serving the trace dump endpoint.
func (r *RemoteShard) TraceSpans(ctx context.Context) ([]trace.SpanWire, error) {
	return r.c.TraceSpans(ctx)
}

func (r *RemoteShard) FeedCtx(ctx context.Context, uid profile.UserID) ([]ad.Impression, error) {
	return r.c.Feed(ctx, uid)
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
	return r.c.AdvertisersTargetingMe(context.Background(), uid)
}

func (r *RemoteShard) ExplainImpression(uid profile.UserID, imp ad.Impression) (explain.Explanation, error) {
	return r.c.ExplainImpression(context.Background(), uid, imp)
}

// --- advertiser-scoped mutations ---

func (r *RemoteShard) RegisterAdvertiser(name string) error {
	return r.c.RegisterAdvertiser(context.Background(), name)
}

func (r *RemoteShard) CreateCampaign(advertiser string, params platform.CampaignParams) (string, error) {
	return r.c.CreateCampaign(context.Background(), advertiser, params)
}

func (r *RemoteShard) PauseCampaign(advertiser, campaignID string) error {
	return r.c.PauseCampaign(context.Background(), advertiser, campaignID)
}

func (r *RemoteShard) CreatePIIAudience(advertiser, name string, keys []pii.MatchKey) (audience.AudienceID, error) {
	return r.c.CreatePIIAudience(context.Background(), advertiser, name, keys)
}

func (r *RemoteShard) CreateWebsiteAudience(advertiser, name string, px pixel.PixelID) (audience.AudienceID, error) {
	return r.c.CreateWebsiteAudience(context.Background(), advertiser, name, px)
}

func (r *RemoteShard) CreateEngagementAudience(advertiser, name, pageID string) (audience.AudienceID, error) {
	return r.c.CreateEngagementAudience(context.Background(), advertiser, name, pageID)
}

func (r *RemoteShard) CreateAffinityAudience(advertiser, name string, phrases []string) (audience.AudienceID, error) {
	return r.c.CreateAffinityAudience(context.Background(), advertiser, name, phrases)
}

func (r *RemoteShard) CreateLookalikeAudience(advertiser, name string, seed audience.AudienceID, overlap float64) (audience.AudienceID, error) {
	return r.c.CreateLookalikeAudience(context.Background(), advertiser, name, seed, overlap)
}

func (r *RemoteShard) IssuePixel(advertiser string) (pixel.PixelID, error) {
	return r.c.IssuePixel(context.Background(), advertiser)
}

// --- aggregate reads ---

func (r *RemoteShard) RawReach(ctx context.Context, advertiser string, spec audience.Spec) (int, error) {
	return r.c.RawReach(ctx, advertiser, spec)
}

func (r *RemoteShard) CampaignTotals(ctx context.Context, advertiser, campaignID string) (platform.CampaignTotals, error) {
	return r.c.CampaignTotals(ctx, advertiser, campaignID)
}

// --- replicated state (answered locally) ---

func (r *RemoteShard) Catalog() *attr.Catalog { return r.catalog }

func (r *RemoteShard) SearchAttributes(query string) []*attr.Attribute {
	return r.catalog.Search(query)
}
