package platform

import (
	"fmt"
	"sort"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/delivery"
	"github.com/treads-project/treads/internal/explain"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/policy"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
)

// snapshotVersion guards against loading snapshots written by an
// incompatible build.
const snapshotVersion = 1

// State is the platform's complete serializable form: everything needed to
// stop adplatformd and restart it without losing accounts, audiences,
// campaigns, delivery history, or billing. The attribute catalog is NOT
// serialized — snapshots assume the default catalog (a custom-catalog
// platform must be reconstructed programmatically).
type State struct {
	Version     int             `json:"version"`
	Market      auction.Market  `json:"market"`
	ReviewAds   bool            `json:"review_ads,omitempty"`
	NoIndex     bool            `json:"no_index,omitempty"`
	Seed        uint64          `json:"seed"`
	Advertisers []string        `json:"advertisers,omitempty"`
	Owner       []CampaignOwner `json:"owner,omitempty"`
	NextCamp    int             `json:"next_campaign"`
	Profiles    []profile.State `json:"profiles,omitempty"`
	Pixels      pixel.State     `json:"pixels"`
	Audiences   audience.State  `json:"audiences"`
	Ledger      billing.State   `json:"ledger"`
	Pipeline    delivery.State  `json:"pipeline"`
	Enforcer    policy.State    `json:"enforcer"`
}

// CampaignOwner maps a campaign to its advertiser account.
type CampaignOwner struct {
	CampaignID string `json:"campaign_id"`
	Advertiser string `json:"advertiser"`
}

// state exports the full state as recovery would reconstruct it: the
// recorded seed is the delivery RNG's current state, so a Restore of it
// resumes auctions mid-stream.
func (c *components) state() State {
	s := c.stateWithoutProfiles()
	s.Profiles = c.store.Snapshot()
	return s
}

// stateWithoutProfiles is state less the profiles, which a compaction
// encodes straight from the live store.
func (c *components) stateWithoutProfiles() State {
	c.mu.Lock()
	s := State{
		Version:   snapshotVersion,
		Market:    c.market,
		ReviewAds: c.reviewAds,
		NoIndex:   c.indexDisabled,
		Seed:      c.pipeline.RNGState(),
		NextCamp:  c.nextCamp,
	}
	for adv := range c.advertisers {
		s.Advertisers = append(s.Advertisers, adv)
	}
	sort.Strings(s.Advertisers)
	for cid, adv := range c.owner {
		s.Owner = append(s.Owner, CampaignOwner{CampaignID: cid, Advertiser: adv})
	}
	sort.Slice(s.Owner, func(i, j int) bool { return s.Owner[i].CampaignID < s.Owner[j].CampaignID })
	c.mu.Unlock()

	s.Pixels = c.pixels.Snapshot(c.store)
	s.Audiences = c.audiences.Snapshot()
	s.Ledger = c.pipeline.LedgerSnapshot()
	s.Pipeline = c.pipeline.Snapshot()
	s.Enforcer = c.enforcer.Snapshot()
	return s
}

// Restore rebuilds a platform without a journal from a snapshot (default
// catalog).
func Restore(s State) (*Platform, error) {
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("platform: snapshot version %d, want %d", s.Version, snapshotVersion)
	}
	store := profile.NewSizedStore(len(s.Profiles))
	for _, ps := range s.Profiles {
		pr, err := profile.FromState(ps)
		if err != nil {
			return nil, err
		}
		if err := store.Add(pr); err != nil {
			return nil, err
		}
	}
	pixels, err := pixel.RestoreState(s.Pixels, store)
	if err != nil {
		return nil, err
	}
	audiences, err := audience.RestoreState(s.Audiences, store, pixels)
	if err != nil {
		return nil, err
	}
	if !s.NoIndex {
		// Recovery-time rebuild: the index is never serialized; it is
		// reconstructed from the restored profiles (and kept current while
		// any journal suffix replays through the indexed platform).
		if err := audiences.EnableIndex(); err != nil {
			return nil, fmt.Errorf("platform: rebuilding targeting index: %w", err)
		}
	}
	pipeline, err := delivery.RestoreState(s.Pipeline, s.Ledger, store, audiences, s.Market, stats.NewRNG(s.Seed))
	if err != nil {
		return nil, err
	}
	c := &components{
		catalog:       attr.DefaultCatalog(),
		store:         store,
		pixels:        pixels,
		audiences:     audiences,
		enforcer:      policy.RestoreState(s.Enforcer),
		pipeline:      pipeline,
		market:        s.Market,
		reviewAds:     s.ReviewAds,
		indexDisabled: s.NoIndex,
		advertisers:   make(map[string]bool, len(s.Advertisers)),
		owner:         make(map[string]string, len(s.Owner)),
		nextCamp:      s.NextCamp,
	}
	for _, adv := range s.Advertisers {
		c.advertisers[adv] = true
	}
	for _, o := range s.Owner {
		c.owner[o.CampaignID] = o.Advertiser
	}
	c.explainer = explain.New(c.catalog, c.prevalence)
	p := &Platform{}
	p.comp.Store(c)
	return p, nil
}
