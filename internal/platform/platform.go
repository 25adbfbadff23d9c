// Package platform composes the substrate packages into a complete
// simulated advertising platform with the two API surfaces real platforms
// have: an advertiser-facing API (accounts, audiences, campaigns, reports)
// and a user-facing one (feed, ad preferences, per-ad explanations).
//
// The composition enforces the trust boundaries the paper's privacy
// analysis leans on: advertisers interact only through methods that return
// aggregates (reach estimates, thresholded reports) and can never observe
// which users are in an audience or saw an ad; users see ads and the
// platform's (incomplete) transparency surfaces.
package platform

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/delivery"
	"github.com/treads-project/treads/internal/explain"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/policy"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
	"github.com/treads-project/treads/internal/trace"
)

// ErrRejected is wrapped by CreateCampaign errors caused by ad review.
var ErrRejected = errors.New("ad rejected by policy review")

// Ops is the set of operations every layer between the public API and a
// shard forwards unchanged, declared once: httpapi.Backend, rpc.Backend and
// cluster.Shard embed it and add only what is theirs. *Platform,
// *Journaled, *cluster.Cluster and *cluster.RemoteShard implement it.
type Ops interface {
	// User-scoped: routed to the shard that owns the user. The browse and
	// the feed read carry the request context (trace, deadline) and report
	// an unreachable shard as an error, never as an empty answer.
	BrowseFeedCtx(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error)
	FeedCtx(ctx context.Context, uid profile.UserID) ([]ad.Impression, error)
	VisitPage(uid profile.UserID, px pixel.PixelID) error
	LikePage(uid profile.UserID, pageID string) error
	AdPreferences(uid profile.UserID) ([]attr.ID, error)
	AdvertisersTargetingMe(uid profile.UserID) ([]string, error)
	ExplainImpression(uid profile.UserID, imp ad.Impression) (explain.Explanation, error)

	// Advertiser-scoped mutations: applied to every shard in one order.
	RegisterAdvertiser(name string) error
	CreateCampaign(advertiser string, params CampaignParams) (string, error)
	PauseCampaign(advertiser, campaignID string) error
	CreatePIIAudience(advertiser, name string, keys []pii.MatchKey) (audience.AudienceID, error)
	CreateWebsiteAudience(advertiser, name string, px pixel.PixelID) (audience.AudienceID, error)
	CreateEngagementAudience(advertiser, name, pageID string) (audience.AudienceID, error)
	CreateAffinityAudience(advertiser, name string, phrases []string) (audience.AudienceID, error)
	CreateLookalikeAudience(advertiser, name string, seed audience.AudienceID, overlap float64) (audience.AudienceID, error)
	IssuePixel(advertiser string) (pixel.PixelID, error)
}

// Config parameterizes a platform instance.
type Config struct {
	// Catalog defaults to attr.DefaultCatalog().
	Catalog *attr.Catalog
	// Market defaults to auction.DefaultMarket().
	Market *auction.Market
	// Seed seeds the delivery auctions' randomness.
	Seed uint64
	// BanAfter is the policy enforcer's ban threshold (0 disables bans).
	BanAfter int
	// ReviewAds disables ad review entirely when false — the permissive
	// configuration most experiments use so that Treads content is
	// orthogonal to delivery; E6 turns it on.
	ReviewAds bool
	// DisableIndex keeps the audience engine on the linear-scan paths
	// instead of the inverted targeting index (internal/index). The index
	// is on by default; this exists for differential tests and for
	// debugging index suspicion in production-like runs.
	DisableIndex bool
}

// Platform is one simulated advertising platform.
type Platform struct {
	catalog       *attr.Catalog
	store         *profile.Store
	pixels        *pixel.Registry
	audiences     *audience.Engine
	ledger        *billing.Ledger
	enforcer      *policy.Enforcer
	pipeline      *delivery.Pipeline
	explainer     *explain.Explainer
	market        auction.Market
	reviewAds     bool
	indexDisabled bool

	mu          sync.Mutex
	advertisers map[string]bool
	owner       map[string]string // campaignID -> advertiser
	nextCamp    int
}

// New builds a platform from the config.
func New(cfg Config) *Platform {
	catalog := cfg.Catalog
	if catalog == nil {
		catalog = attr.DefaultCatalog()
	}
	market := auction.DefaultMarket()
	if cfg.Market != nil {
		market = *cfg.Market
	}
	store := profile.NewStore()
	pixels := pixel.NewRegistry()
	audiences := audience.NewEngine(store, pixels)
	ledger := billing.NewLedger()
	p := &Platform{
		catalog:       catalog,
		store:         store,
		pixels:        pixels,
		audiences:     audiences,
		ledger:        ledger,
		enforcer:      policy.NewEnforcer(cfg.BanAfter),
		pipeline:      delivery.NewPipeline(store, audiences, ledger, market, stats.NewRNG(cfg.Seed)),
		market:        market,
		reviewAds:     cfg.ReviewAds,
		indexDisabled: cfg.DisableIndex,
		advertisers:   make(map[string]bool),
		owner:         make(map[string]string),
	}
	if !cfg.DisableIndex {
		// The store is empty here, so enabling is cheap; the index then
		// grows incrementally with every AddUser/LikePage.
		_ = audiences.EnableIndex()
	}
	p.explainer = explain.New(catalog, p.prevalence)
	return p
}

// Catalog returns the platform's attribute catalog (public to advertisers).
func (p *Platform) Catalog() *attr.Catalog { return p.catalog }

// Ledger exposes the billing ledger; experiment harnesses use it for
// platform-internal ground truth.
func (p *Platform) Ledger() *billing.Ledger { return p.ledger }

// Enforcer exposes the policy enforcer for shutdown experiments.
func (p *Platform) Enforcer() *policy.Enforcer { return p.enforcer }

// prevalence returns the fraction of all users holding the attribute —
// an O(1) posting-list popcount when the index is enabled.
func (p *Platform) prevalence(id attr.ID) float64 {
	total := p.store.Len()
	if total == 0 {
		return 0
	}
	if idx := p.audiences.Index(); idx != nil {
		return float64(idx.AttrCount(id)) / float64(total)
	}
	n := 0
	p.store.Each(func(pr *profile.Profile) {
		if pr.HasAttr(id) {
			n++
		}
	})
	return float64(n) / float64(total)
}

// --- population management (simulation harness side) ---

// AddUser inserts a user profile into the platform's database.
func (p *Platform) AddUser(pr *profile.Profile) error { return p.store.Add(pr) }

// User returns a user's profile (simulation ground truth; not part of
// either product API).
func (p *Platform) User(id profile.UserID) *profile.Profile { return p.store.Get(id) }

// Users returns all user IDs in insertion order.
func (p *Platform) Users() []profile.UserID { return p.store.UserIDs() }

// --- advertiser API ---

// RegisterAdvertiser creates an advertiser account. Anyone can be an
// advertiser (§3.1: "anyone with a Facebook account can be an advertiser").
func (p *Platform) RegisterAdvertiser(name string) error {
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("platform: empty advertiser name")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.advertisers[name] {
		return fmt.Errorf("platform: advertiser %q already registered", name)
	}
	p.advertisers[name] = true
	return nil
}

func (p *Platform) checkAdvertiser(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.advertisers[name] {
		return fmt.Errorf("platform: unknown advertiser %q", name)
	}
	return nil
}

// CampaignParams are the advertiser's inputs to campaign creation.
type CampaignParams struct {
	Spec audience.Spec
	// BidCapCPM defaults to auction.DefaultCPM (the platform's
	// recommended bid) when zero.
	BidCapCPM    money.Micros
	Creative     ad.Creative
	FrequencyCap int
	// Budget caps total campaign spend; zero means unlimited.
	Budget money.Micros
}

// CreateCampaign reviews and registers a campaign, returning its ID.
// If ad review is enabled and rejects the creative, the error wraps
// ErrRejected and includes the policy reasons.
func (p *Platform) CreateCampaign(advertiser string, params CampaignParams) (string, error) {
	if err := p.checkAdvertiser(advertiser); err != nil {
		return "", err
	}
	if p.enforcer.Banned(advertiser) {
		return "", fmt.Errorf("platform: advertiser %q: %w: account banned", advertiser, ErrRejected)
	}
	if params.Spec.Expr != nil {
		if err := attr.Validate(params.Spec.Expr, p.catalog); err != nil {
			return "", fmt.Errorf("platform: invalid targeting: %w", err)
		}
	}
	if p.reviewAds {
		if d := p.enforcer.Submit(advertiser, params.Creative); d.Verdict == policy.Rejected {
			return "", fmt.Errorf("platform: %w: %s", ErrRejected, strings.Join(d.Reasons, "; "))
		}
	}
	bid := params.BidCapCPM
	if bid == 0 {
		bid = auction.DefaultCPM
	}
	p.mu.Lock()
	p.nextCamp++
	id := fmt.Sprintf("camp-%06d", p.nextCamp)
	p.owner[id] = advertiser
	p.mu.Unlock()

	err := p.pipeline.AddCampaign(&delivery.Campaign{
		ID:           id,
		Advertiser:   advertiser,
		Spec:         params.Spec,
		BidCapCPM:    bid,
		Creative:     params.Creative,
		FrequencyCap: params.FrequencyCap,
		Budget:       params.Budget,
	})
	if err != nil {
		p.mu.Lock()
		delete(p.owner, id)
		p.mu.Unlock()
		return "", err
	}
	return id, nil
}

// PauseCampaign pauses a campaign owned by the advertiser.
func (p *Platform) PauseCampaign(advertiser, campaignID string) error {
	if err := p.ownCheck(advertiser, campaignID); err != nil {
		return err
	}
	return p.pipeline.Pause(campaignID)
}

func (p *Platform) ownCheck(advertiser, campaignID string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	owner, ok := p.owner[campaignID]
	if !ok {
		return fmt.Errorf("platform: unknown campaign %q", campaignID)
	}
	if owner != advertiser {
		return fmt.Errorf("platform: campaign %q not owned by %q", campaignID, advertiser)
	}
	return nil
}

// CreatePIIAudience uploads hashed match keys as a customer-list audience.
func (p *Platform) CreatePIIAudience(advertiser, name string, keys []pii.MatchKey) (audience.AudienceID, error) {
	if err := p.checkAdvertiser(advertiser); err != nil {
		return "", err
	}
	return p.audiences.CreatePIIAudience(advertiser, name, keys).ID, nil
}

// CreateWebsiteAudience builds an audience over one of the advertiser's
// pixels.
func (p *Platform) CreateWebsiteAudience(advertiser, name string, px pixel.PixelID) (audience.AudienceID, error) {
	if err := p.checkAdvertiser(advertiser); err != nil {
		return "", err
	}
	a, err := p.audiences.CreateWebsiteAudience(advertiser, name, px)
	if err != nil {
		return "", err
	}
	return a.ID, nil
}

// CreateAffinityAudience builds a keyword (custom-affinity) audience: the
// phrases are resolved against the catalog platform-side; the advertiser
// only ever sees the audience ID.
func (p *Platform) CreateAffinityAudience(advertiser, name string, phrases []string) (audience.AudienceID, error) {
	if err := p.checkAdvertiser(advertiser); err != nil {
		return "", err
	}
	a, err := p.audiences.CreateAffinityAudience(advertiser, name, phrases, p.catalog)
	if err != nil {
		return "", err
	}
	return a.ID, nil
}

// CreateLookalikeAudience derives a similarity audience from one of the
// advertiser's existing audiences. overlap <= 0 selects the default.
func (p *Platform) CreateLookalikeAudience(advertiser, name string, seed audience.AudienceID, overlap float64) (audience.AudienceID, error) {
	if err := p.checkAdvertiser(advertiser); err != nil {
		return "", err
	}
	a, err := p.audiences.CreateLookalikeAudience(advertiser, name, seed, overlap)
	if err != nil {
		return "", err
	}
	return a.ID, nil
}

// CreateEngagementAudience builds an audience of users who liked a page.
func (p *Platform) CreateEngagementAudience(advertiser, name, pageID string) (audience.AudienceID, error) {
	if err := p.checkAdvertiser(advertiser); err != nil {
		return "", err
	}
	return p.audiences.CreateEngagementAudience(advertiser, name, pageID).ID, nil
}

// IssuePixel issues a tracking pixel to the advertiser.
func (p *Platform) IssuePixel(advertiser string) (pixel.PixelID, error) {
	if err := p.checkAdvertiser(advertiser); err != nil {
		return "", err
	}
	return p.pixels.Issue(advertiser).ID, nil
}

// PotentialReach returns the rounded, thresholded reach estimate for a
// targeting spec — the only audience-size signal advertisers get. The
// context carries the caller's deadline: in-process resolution honors it
// only at entry, but the same signature on a cluster coordinator bounds
// the network scatter-gather, so httpapi request deadlines propagate all
// the way to remote shards.
func (p *Platform) PotentialReach(ctx context.Context, advertiser string, spec audience.Spec) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := p.checkAdvertiser(advertiser); err != nil {
		return 0, err
	}
	return p.audiences.PotentialReach(spec)
}

// RawReach returns the exact number of this platform's users matching the
// spec, before the advertiser-visible thresholding PotentialReach applies.
// It exists for cluster coordinators, which must sum exact per-shard counts
// and threshold the total once — thresholding per shard would suppress any
// audience that is merely spread thin. It is never exposed to advertisers
// directly.
func (p *Platform) RawReach(ctx context.Context, advertiser string, spec audience.Spec) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := p.checkAdvertiser(advertiser); err != nil {
		return 0, err
	}
	return p.audiences.CountMatches(spec)
}

// CampaignTotals are one campaign's exact delivery totals on one platform,
// before any advertiser-visible threshold: the mergeable form of a report.
type CampaignTotals struct {
	Impressions int
	// Reach is the exact distinct-user count. Shards partition users, so
	// per-shard reaches are disjoint and sum to the cluster-wide reach.
	Reach int
	// Spend is the accrued (not thresholded) spend.
	Spend money.Micros
}

// CampaignTotals returns the campaign's exact totals after the same
// ownership check Report performs. Cluster coordinators sum totals across
// shards and apply the billing thresholds once, via billing.MakeReport.
func (p *Platform) CampaignTotals(ctx context.Context, advertiser, campaignID string) (CampaignTotals, error) {
	if err := ctx.Err(); err != nil {
		return CampaignTotals{}, err
	}
	if err := p.ownCheck(advertiser, campaignID); err != nil {
		return CampaignTotals{}, err
	}
	return CampaignTotals{
		Impressions: p.ledger.TrueImpressions(campaignID),
		Reach:       p.ledger.TrueReach(campaignID),
		Spend:       p.ledger.TrueSpend(campaignID),
	}, nil
}

// SearchAttributes is the ads-manager keyword search over the catalog.
func (p *Platform) SearchAttributes(query string) []*attr.Attribute {
	return p.catalog.Search(query)
}

// Report returns the campaign's advertiser-visible performance report.
func (p *Platform) Report(ctx context.Context, advertiser, campaignID string) (billing.Report, error) {
	if err := ctx.Err(); err != nil {
		return billing.Report{}, err
	}
	if err := p.ownCheck(advertiser, campaignID); err != nil {
		return billing.Report{}, err
	}
	return p.ledger.Report(campaignID), nil
}

// --- user API ---

// BrowseFeed simulates the user viewing `slots` ad slots and returns the
// impressions delivered in this session.
func (p *Platform) BrowseFeed(uid profile.UserID, slots int) ([]ad.Impression, error) {
	return p.pipeline.Browse(uid, slots)
}

// BrowseFeedCtx is BrowseFeed under the request context: a sampled
// request gets a delivery span with slot and impression counts; an
// unsampled one pays nothing (StartChild of a spanless context is
// free).
func (p *Platform) BrowseFeedCtx(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	_, sp := trace.StartChild(ctx, "delivery.browse")
	imps, err := p.pipeline.Browse(uid, slots)
	if sp != nil {
		sp.Annotate("slots", strconv.Itoa(slots))
		sp.Annotate("impressions", strconv.Itoa(len(imps)))
		sp.SetError(err)
		sp.Finish()
	}
	return imps, err
}

// Feed returns every impression the user has ever been shown.
func (p *Platform) Feed(uid profile.UserID) []ad.Impression {
	return p.pipeline.Feed(uid)
}

// FeedCtx is the feed read of the op set (see Ops): Feed, with an unknown
// user refused the way every other user-scoped read refuses one.
func (p *Platform) FeedCtx(_ context.Context, uid profile.UserID) ([]ad.Impression, error) {
	if p.store.Get(uid) == nil {
		return nil, fmt.Errorf("platform: unknown user %q", uid)
	}
	return p.pipeline.Feed(uid), nil
}

// VisitPage records the user visiting an external page carrying the pixel
// (fires the pixel platform-side).
func (p *Platform) VisitPage(uid profile.UserID, px pixel.PixelID) error {
	if p.store.Get(uid) == nil {
		return fmt.Errorf("platform: unknown user %q", uid)
	}
	return p.pixels.RecordVisit(px, uid)
}

// LikePage records the user liking a page.
func (p *Platform) LikePage(uid profile.UserID, pageID string) error {
	pr := p.store.Get(uid)
	if pr == nil {
		return fmt.Errorf("platform: unknown user %q", uid)
	}
	pr.Like(pageID)
	return nil
}

// UnlikePage removes a page like; unliking a never-liked page is a no-op.
// Engagement audiences drop the user on their next evaluation.
func (p *Platform) UnlikePage(uid profile.UserID, pageID string) error {
	pr := p.store.Get(uid)
	if pr == nil {
		return fmt.Errorf("platform: unknown user %q", uid)
	}
	pr.Unlike(pageID)
	return nil
}

// AdPreferences returns the attributes the platform's transparency page
// shows the user (platform-sourced only; partner attributes withheld).
func (p *Platform) AdPreferences(uid profile.UserID) ([]attr.ID, error) {
	pr := p.store.Get(uid)
	if pr == nil {
		return nil, fmt.Errorf("platform: unknown user %q", uid)
	}
	revealsPreferences.Inc()
	return p.explainer.Preferences(pr), nil
}

// AdvertisersTargetingMe returns the advertiser accounts with an active
// campaign that targets the user through a PII-list or website-activity
// custom audience — the §2.2 transparency surface Facebook and Twitter
// provide. Per the paper's critique, the platform does NOT reveal which
// PII was used: only advertiser names come back, sorted and deduplicated.
func (p *Platform) AdvertisersTargetingMe(uid profile.UserID) ([]string, error) {
	pr := p.store.Get(uid)
	if pr == nil {
		return nil, fmt.Errorf("platform: unknown user %q", uid)
	}
	out := p.pipeline.CustomDataAdvertisers(pr)
	sort.Strings(out)
	revealsAdvertisers.Inc()
	return out, nil
}

// ExplainImpression generates the "why am I seeing this?" text for an
// impression in the user's feed.
func (p *Platform) ExplainImpression(uid profile.UserID, imp ad.Impression) (explain.Explanation, error) {
	pr := p.store.Get(uid)
	if pr == nil {
		return explain.Explanation{}, fmt.Errorf("platform: unknown user %q", uid)
	}
	c, ok := p.pipeline.Campaign(imp.CampaignID)
	if !ok {
		return explain.Explanation{}, fmt.Errorf("platform: unknown campaign %q", imp.CampaignID)
	}
	expr := c.Spec.Expr
	if expr == nil {
		expr = attr.MatchAll{}
	}
	revealsExplain.Inc()
	return p.explainer.Explain(expr, pr), nil
}
