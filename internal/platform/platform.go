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
	"sync/atomic"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/delivery"
	"github.com/treads-project/treads/internal/explain"
	"github.com/treads-project/treads/internal/journal"
	"github.com/treads-project/treads/internal/money"
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
// *cluster.Cluster and *cluster.RemoteShard implement it.
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
	CreateAudience(advertiser string, d audience.Def) (audience.AudienceID, error)
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
	// Users is how many users the caller is about to add with AddUser. It
	// sizes the profile store and the targeting index, and is a hint, not
	// a limit: zero leaves both to grow as users arrive.
	Users int
}

// Platform is one simulated advertising platform, with or without a
// write-ahead journal. Every public mutation is an op record that commit
// applies (and journals, given a journal); reads take no lock.
type Platform struct {
	mu sync.Mutex       // the op lock: serializes mutations, so journal order == apply order
	j  *journal.Journal // nil without a journal; set before the platform is shared

	// comp is the current component set. Migration records and
	// InstallState replace it wholesale under mu while reads (a follower
	// serving the transparency page, a destination mid-reshard) load it
	// without the lock, hence the atomic pointer.
	comp atomic.Pointer[components]

	// Replication (see journaled_replica.go). shipper, when set, receives
	// every journaled record under mu, in journal order. A following
	// platform refuses direct mutations — its only write path is
	// ApplyShipped — and tracks the owner's LSN sequence in shipSeq.
	shipper func(lsn uint64, payload []byte) error
	follow  bool
	inSync  bool
	shipSeq uint64
}

// components are a platform's subsystems and its account bookkeeping: the
// state a snapshot records, replaced as one value.
type components struct {
	catalog       *attr.Catalog
	store         *profile.Store
	pixels        *pixel.Registry
	audiences     *audience.Engine
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

// New builds a platform without a journal from the config.
func New(cfg Config) *Platform {
	catalog := cfg.Catalog
	if catalog == nil {
		catalog = attr.DefaultCatalog()
	}
	market := auction.DefaultMarket()
	if cfg.Market != nil {
		market = *cfg.Market
	}
	store := profile.NewSizedStore(cfg.Users)
	pixels := pixel.NewRegistry()
	audiences := audience.NewEngine(store, pixels)
	c := &components{
		catalog:       catalog,
		store:         store,
		pixels:        pixels,
		audiences:     audiences,
		enforcer:      policy.NewEnforcer(cfg.BanAfter),
		pipeline:      delivery.NewPipeline(store, audiences, market, stats.NewRNG(cfg.Seed)),
		market:        market,
		reviewAds:     cfg.ReviewAds,
		indexDisabled: cfg.DisableIndex,
		advertisers:   make(map[string]bool),
		owner:         make(map[string]string),
	}
	if !cfg.DisableIndex {
		// The store is empty here, so enabling is cheap; the index, sized
		// like the store, then takes every AddUser/LikePage incrementally.
		_ = audiences.EnableIndex()
	}
	c.explainer = explain.New(catalog, c.prevalence)
	p := &Platform{}
	p.comp.Store(c)
	return p
}

// Catalog returns the platform's attribute catalog (public to advertisers).
func (p *Platform) Catalog() *attr.Catalog { return p.comp.Load().catalog }

// SetBillableThreshold overrides the reach below which a campaign's report
// invoices nothing; the E4 ablation sets 0, which bills and reports
// everything exactly. It is not journaled: a harness sets it before any
// traffic.
func (p *Platform) SetBillableThreshold(n int) { p.comp.Load().pipeline.SetBillableThreshold(n) }

// Enforcer exposes the policy enforcer for shutdown experiments.
func (p *Platform) Enforcer() *policy.Enforcer { return p.comp.Load().enforcer }

// prevalence returns the fraction of all users holding the attribute —
// an O(1) posting-list popcount when the index is enabled.
func (c *components) prevalence(id attr.ID) float64 {
	total := c.store.Len()
	if total == 0 {
		return 0
	}
	if idx := c.audiences.Index(); idx != nil {
		return float64(idx.AttrCount(id)) / float64(total)
	}
	n := 0
	c.store.Each(func(pr *profile.Profile) {
		if pr.HasAttr(id) {
			n++
		}
	})
	return float64(n) / float64(total)
}

// --- population management (simulation harness side) ---

// AddUser inserts a user profile into the platform's database.
func (p *Platform) AddUser(pr *profile.Profile) error {
	rec := &opRecord{Op: opAddUser, profile: pr}
	if p.j != nil {
		st := pr.Snapshot()
		rec.Profile = &st
	}
	_, err := p.commit(context.Background(), rec)
	return err
}

// User returns a user's profile (simulation ground truth; not part of
// either product API).
func (p *Platform) User(id profile.UserID) *profile.Profile { return p.comp.Load().store.Get(id) }

// Users returns all user IDs in insertion order.
func (p *Platform) Users() []profile.UserID { return p.comp.Load().store.UserIDs() }

// --- advertiser API ---

// RegisterAdvertiser creates an advertiser account. Anyone can be an
// advertiser (§3.1: "anyone with a Facebook account can be an advertiser").
func (p *Platform) RegisterAdvertiser(name string) error {
	_, err := p.commit(context.Background(), &opRecord{Op: opRegisterAdvertiser, Name: name})
	return err
}

func (c *components) registerAdvertiser(name string) error {
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("platform: empty advertiser name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.advertisers[name] {
		return fmt.Errorf("platform: advertiser %q already registered", name)
	}
	c.advertisers[name] = true
	return nil
}

func (c *components) checkAdvertiser(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.advertisers[name] {
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
	rec := &opRecord{Op: opCreateCampaign, Advertiser: advertiser, params: &params}
	if p.j != nil {
		ps := campaignParamsToState(params)
		rec.Params = &ps
	}
	res, err := p.commit(context.Background(), rec)
	return res.id, err
}

func (c *components) createCampaign(advertiser string, params CampaignParams) (string, error) {
	if err := c.checkAdvertiser(advertiser); err != nil {
		return "", err
	}
	if c.enforcer.Banned(advertiser) {
		return "", fmt.Errorf("platform: advertiser %q: %w: account banned", advertiser, ErrRejected)
	}
	if params.Spec.Expr != nil {
		if err := attr.Validate(params.Spec.Expr, c.catalog); err != nil {
			return "", fmt.Errorf("platform: invalid targeting: %w", err)
		}
	}
	if c.reviewAds {
		if d := c.enforcer.Submit(advertiser, params.Creative); d.Verdict == policy.Rejected {
			return "", fmt.Errorf("platform: %w: %s", ErrRejected, strings.Join(d.Reasons, "; "))
		}
	}
	bid := params.BidCapCPM
	if bid == 0 {
		bid = auction.DefaultCPM
	}
	c.mu.Lock()
	c.nextCamp++
	id := fmt.Sprintf("camp-%06d", c.nextCamp)
	c.owner[id] = advertiser
	c.mu.Unlock()

	err := c.pipeline.AddCampaign(&delivery.Campaign{
		ID:           id,
		Advertiser:   advertiser,
		Spec:         params.Spec,
		BidCapCPM:    bid,
		Creative:     params.Creative,
		FrequencyCap: params.FrequencyCap,
		Budget:       params.Budget,
	})
	if err != nil {
		c.mu.Lock()
		delete(c.owner, id)
		c.mu.Unlock()
		return "", err
	}
	return id, nil
}

// PauseCampaign pauses a campaign owned by the advertiser.
func (p *Platform) PauseCampaign(advertiser, campaignID string) error {
	_, err := p.commit(context.Background(), &opRecord{Op: opPauseCampaign, Advertiser: advertiser, Campaign: campaignID})
	return err
}

func (c *components) pauseCampaign(advertiser, campaignID string) error {
	if err := c.ownCheck(advertiser, campaignID); err != nil {
		return err
	}
	return c.pipeline.Pause(campaignID)
}

func (c *components) ownCheck(advertiser, campaignID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	owner, ok := c.owner[campaignID]
	if !ok {
		return fmt.Errorf("platform: unknown campaign %q", campaignID)
	}
	if owner != advertiser {
		return fmt.Errorf("platform: campaign %q not owned by %q", campaignID, advertiser)
	}
	return nil
}

// CreateAudience builds one of the advertiser's custom audiences; the
// advertiser sees only its ID, never who is in it. The record is the
// kind's own op, carrying the kind's one argument.
func (p *Platform) CreateAudience(advertiser string, d audience.Def) (audience.AudienceID, error) {
	if err := d.Validate(); err != nil {
		return "", err
	}
	res, err := p.commit(context.Background(), &opRecord{
		Op: audienceOps[d.Kind], Advertiser: advertiser, Name: d.Name, Keys: d.Keys, Pixel: string(d.Pixel),
		Page: d.Page, Phrases: d.Phrases, Seed: string(d.Seed), Overlap: d.Overlap,
	})
	return audience.AudienceID(res.id), err
}

func (c *components) createAudience(advertiser string, d audience.Def) (audience.AudienceID, error) {
	if err := c.checkAdvertiser(advertiser); err != nil {
		return "", err
	}
	a, err := c.audiences.Create(advertiser, d, c.catalog)
	if err != nil {
		return "", err
	}
	return a.ID, nil
}

// IssuePixel issues a tracking pixel to the advertiser.
func (p *Platform) IssuePixel(advertiser string) (pixel.PixelID, error) {
	res, err := p.commit(context.Background(), &opRecord{Op: opIssuePixel, Advertiser: advertiser})
	return pixel.PixelID(res.id), err
}

func (c *components) issuePixel(advertiser string) (pixel.PixelID, error) {
	if err := c.checkAdvertiser(advertiser); err != nil {
		return "", err
	}
	return c.pixels.Issue(advertiser).ID, nil
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
	c := p.comp.Load()
	if err := c.checkAdvertiser(advertiser); err != nil {
		return 0, err
	}
	return c.audiences.PotentialReach(spec)
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
	c := p.comp.Load()
	if err := c.checkAdvertiser(advertiser); err != nil {
		return 0, err
	}
	return c.audiences.CountMatches(spec)
}

// CampaignTotals are one campaign's exact delivery totals on one platform,
// before any advertiser-visible threshold: the mergeable form of a report.
// Shards partition users, so per-shard reaches are disjoint and sum to the
// cluster-wide reach.
type CampaignTotals = billing.Totals

// CampaignTotals returns the campaign's exact totals, read in one critical
// section, after the same ownership check Report performs. Cluster
// coordinators sum totals across shards and apply the billing thresholds
// once, via billing.MakeReport.
func (p *Platform) CampaignTotals(ctx context.Context, advertiser, campaignID string) (CampaignTotals, error) {
	if err := ctx.Err(); err != nil {
		return CampaignTotals{}, err
	}
	c := p.comp.Load()
	if err := c.ownCheck(advertiser, campaignID); err != nil {
		return CampaignTotals{}, err
	}
	return c.pipeline.Totals(campaignID), nil
}

// SearchAttributes is the ads-manager keyword search over the catalog.
func (p *Platform) SearchAttributes(query string) []*attr.Attribute {
	return p.comp.Load().catalog.Search(query)
}

// Report returns the campaign's advertiser-visible performance report.
func (p *Platform) Report(ctx context.Context, advertiser, campaignID string) (billing.Report, error) {
	if err := ctx.Err(); err != nil {
		return billing.Report{}, err
	}
	c := p.comp.Load()
	if err := c.ownCheck(advertiser, campaignID); err != nil {
		return billing.Report{}, err
	}
	return c.pipeline.Report(campaignID), nil
}

// --- user API ---

// BrowseFeed simulates the user viewing `slots` ad slots and returns the
// impressions delivered in this session.
func (p *Platform) BrowseFeed(uid profile.UserID, slots int) ([]ad.Impression, error) {
	return p.BrowseFeedCtx(context.Background(), uid, slots)
}

// BrowseFeedCtx is BrowseFeed under the request context, so a sampled
// browse records its journal.append and delivery spans in the caller's
// trace. A journal records only the intent (user, slot count); the
// auctions re-run identically on replay because the RNG state is part of
// every snapshot.
func (p *Platform) BrowseFeedCtx(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	res, err := p.commit(ctx, &opRecord{Op: opBrowse, User: uid, Slots: slots})
	return res.imps, err
}

// browse runs the session under the request context: a sampled request
// gets a delivery span with slot and impression counts; an unsampled one
// pays nothing (StartChild of a spanless context is free).
func (c *components) browse(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	_, sp := trace.StartChild(ctx, "delivery.browse")
	imps, err := c.pipeline.Browse(uid, slots)
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
	return p.comp.Load().pipeline.Feed(uid)
}

// FeedCtx is the feed read of the op set (see Ops): Feed, with an unknown
// user refused the way every other user-scoped read refuses one.
func (p *Platform) FeedCtx(_ context.Context, uid profile.UserID) ([]ad.Impression, error) {
	c := p.comp.Load()
	if c.store.Get(uid) == nil {
		return nil, fmt.Errorf("platform: unknown user %q", uid)
	}
	return c.pipeline.Feed(uid), nil
}

// VisitPage records the user visiting an external page carrying the pixel
// (fires the pixel platform-side).
func (p *Platform) VisitPage(uid profile.UserID, px pixel.PixelID) error {
	_, err := p.commit(context.Background(), &opRecord{Op: opVisitPage, User: uid, Pixel: string(px)})
	return err
}

// visitPage files the visit under the user's ordinal.
func (c *components) visitPage(uid profile.UserID, px pixel.PixelID) error {
	pr := c.store.Get(uid)
	if pr == nil {
		return fmt.Errorf("platform: unknown user %q", uid)
	}
	return c.pixels.RecordVisit(px, pr.Ord())
}

// LikePage records the user liking a page.
func (p *Platform) LikePage(uid profile.UserID, pageID string) error {
	_, err := p.commit(context.Background(), &opRecord{Op: opLikePage, User: uid, Page: pageID})
	return err
}

// likePage records the like; the profile keeps the store's one copy of the
// page ID, not the string the request was decoded into (Profile.Like).
func (c *components) likePage(uid profile.UserID, pageID string) error {
	pr := c.store.Get(uid)
	if pr == nil {
		return fmt.Errorf("platform: unknown user %q", uid)
	}
	pr.Like(pageID)
	return nil
}

// unlikePage removes a page like; unliking a never-liked page is a no-op.
// No call journals it any more; journals that hold the op still replay.
func (c *components) unlikePage(uid profile.UserID, pageID string) error {
	pr := c.store.Get(uid)
	if pr == nil {
		return fmt.Errorf("platform: unknown user %q", uid)
	}
	pr.Unlike(pageID)
	return nil
}

// AdPreferences returns the attributes the platform's transparency page
// shows the user (platform-sourced only; partner attributes withheld).
func (p *Platform) AdPreferences(uid profile.UserID) ([]attr.ID, error) {
	c := p.comp.Load()
	pr := c.store.Get(uid)
	if pr == nil {
		return nil, fmt.Errorf("platform: unknown user %q", uid)
	}
	revealsPreferences.Inc()
	return c.explainer.Preferences(pr), nil
}

// AdvertisersTargetingMe returns the advertiser accounts with an active
// campaign that targets the user through a PII-list or website-activity
// custom audience — the §2.2 transparency surface Facebook and Twitter
// provide. Per the paper's critique, the platform does NOT reveal which
// PII was used: only advertiser names come back, sorted and deduplicated.
func (p *Platform) AdvertisersTargetingMe(uid profile.UserID) ([]string, error) {
	c := p.comp.Load()
	pr := c.store.Get(uid)
	if pr == nil {
		return nil, fmt.Errorf("platform: unknown user %q", uid)
	}
	out := c.pipeline.CustomDataAdvertisers(pr)
	sort.Strings(out)
	revealsAdvertisers.Inc()
	return out, nil
}

// ExplainImpression generates the "why am I seeing this?" text for an
// impression in the user's feed.
func (p *Platform) ExplainImpression(uid profile.UserID, imp ad.Impression) (explain.Explanation, error) {
	c := p.comp.Load()
	pr := c.store.Get(uid)
	if pr == nil {
		return explain.Explanation{}, fmt.Errorf("platform: unknown user %q", uid)
	}
	camp, ok := c.pipeline.Campaign(imp.CampaignID)
	if !ok {
		return explain.Explanation{}, fmt.Errorf("platform: unknown campaign %q", imp.CampaignID)
	}
	expr := camp.Spec.Expr
	if expr == nil {
		expr = attr.MatchAll{}
	}
	revealsExplain.Inc()
	return c.explainer.Explain(expr, pr), nil
}
