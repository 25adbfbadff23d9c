package delivery

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
)

// State is the pipeline's serializable form. Auction randomness is not
// part of the state: a restored pipeline continues from a fresh seed,
// which preserves every invariant (budgets, caps, feeds) without trying to
// freeze a PRNG mid-stream. Per-user impression counts are not part of it
// either: they are the number of each campaign's impressions in Feeds,
// recounted by RestoreState. (Earlier builds wrote them a second time
// under a "freq" key, which decoding ignores.)
type State struct {
	Campaigns []CampaignState `json:"campaigns,omitempty"`
	Feeds     []FeedState     `json:"feeds,omitempty"`
	Slots     []SlotState     `json:"slots,omitempty"`
}

// CampaignState is one campaign. The targeting expression travels in its
// canonical textual syntax.
type CampaignState struct {
	ID           string                `json:"id"`
	Advertiser   string                `json:"advertiser"`
	Include      []audience.AudienceID `json:"include,omitempty"`
	IncludeAll   []audience.AudienceID `json:"include_all,omitempty"`
	Exclude      []audience.AudienceID `json:"exclude,omitempty"`
	Expr         string                `json:"expr,omitempty"`
	BidCapCPM    money.Micros          `json:"bid_cap_cpm"`
	Creative     ad.Creative           `json:"creative"`
	FrequencyCap int                   `json:"frequency_cap,omitempty"`
	Budget       money.Micros          `json:"budget,omitempty"`
	Paused       bool                  `json:"paused,omitempty"`
}

// FeedState is one user's full impression history. RestoreState reads an
// impression's CampaignID and Slot; its advertiser and creative are taken
// from that campaign in State.Campaigns, which is where they were copied
// from when it was written.
type FeedState struct {
	User        profile.UserID  `json:"user"`
	Impressions []ad.Impression `json:"impressions"`
}

// SlotState is one user's total slot counter.
type SlotState struct {
	User profile.UserID `json:"user"`
	N    int            `json:"n"`
}

// Snapshot exports the pipeline.
func (p *Pipeline) Snapshot() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	var s State
	for _, c := range p.campaigns {
		cs := CampaignState{
			ID: c.ID, Advertiser: c.Advertiser,
			Include:    append([]audience.AudienceID(nil), c.Spec.Include...),
			IncludeAll: append([]audience.AudienceID(nil), c.Spec.IncludeAll...),
			Exclude:    append([]audience.AudienceID(nil), c.Spec.Exclude...),
			BidCapCPM:  c.BidCapCPM, Creative: c.Creative,
			FrequencyCap: c.FrequencyCap, Budget: c.Budget, Paused: c.Paused,
		}
		if c.Spec.Expr != nil {
			cs.Expr = c.Spec.Expr.String()
		}
		s.Campaigns = append(s.Campaigns, cs)
	}
	// Taken under p.mu: every ordinal in p.users names a user in it.
	ids := p.store.UserIDs()
	var held []uint32 // the ordinals with a record, by user ID
	for o := range p.users {
		if u := &p.users[o]; len(u.feed) > 0 || u.slots > 0 {
			held = append(held, uint32(o))
		}
	}
	slices.SortFunc(held, func(a, b uint32) int { return cmp.Compare(ids[a], ids[b]) })
	for _, o := range held {
		u := &p.users[o]
		if len(u.feed) > 0 {
			s.Feeds = append(s.Feeds, FeedState{User: ids[o], Impressions: p.impressions(u)})
		}
		if u.slots > 0 {
			s.Slots = append(s.Slots, SlotState{User: ids[o], N: int(u.slots)})
		}
	}
	return s
}

// RestoreState rebuilds a pipeline over the given components. A feed that
// names a campaign s does not define is refused: no cap counts its
// impressions and no ledger row agrees with them. So is a slot number or a
// slot counter outside 0…math.MaxUint32, which a feed row cannot hold, and
// a feed or a slot counter of a user store does not hold: only a user of
// the node browses.
func RestoreState(s State, store *profile.Store, engine *audience.Engine, ledger *billing.Ledger, market auction.Market, rng *stats.RNG) (*Pipeline, error) {
	p := NewPipeline(store, engine, ledger, market, rng)
	for _, cs := range s.Campaigns {
		var expr attr.Expr
		if cs.Expr != "" {
			e, err := attr.Parse(cs.Expr)
			if err != nil {
				return nil, fmt.Errorf("delivery: campaign %q expr: %w", cs.ID, err)
			}
			expr = e
		}
		c := &Campaign{
			ID: cs.ID, Advertiser: cs.Advertiser,
			Spec: audience.Spec{
				Include: cs.Include, IncludeAll: cs.IncludeAll,
				Exclude: cs.Exclude, Expr: expr,
			},
			BidCapCPM: cs.BidCapCPM, Creative: cs.Creative,
			FrequencyCap: cs.FrequencyCap, Budget: cs.Budget, Paused: cs.Paused,
		}
		if err := p.AddCampaign(c); err != nil {
			return nil, err
		}
	}
	ord := func(uid profile.UserID, what string) (uint32, error) {
		o, ok := store.Ord(uid)
		if !ok {
			return 0, fmt.Errorf("delivery: the %s of user %q, who is not one of the state's users", what, uid)
		}
		return o, nil
	}
	for _, fs := range s.Feeds {
		o, err := ord(fs.User, "feed")
		if err != nil {
			return nil, err
		}
		u := p.user(o)
		u.feed = slices.Grow(u.feed, 2*len(fs.Impressions)) // a row is at least 2 bytes
		for _, imp := range fs.Impressions {
			c := p.byID[imp.CampaignID]
			if c == nil {
				return nil, fmt.Errorf("delivery: user %q's feed names campaign %q, which the state does not define", fs.User, imp.CampaignID)
			}
			if !fitsSlot(imp.Slot) {
				return nil, fmt.Errorf("delivery: user %q's feed has an impression at slot %d, want 0 to %d", fs.User, imp.Slot, uint32(math.MaxUint32))
			}
			u.appendRow(c.ord, uint32(imp.Slot))
		}
	}
	for _, ss := range s.Slots {
		if !fitsSlot(ss.N) {
			return nil, fmt.Errorf("delivery: user %q has run %d slots, want 0 to %d", ss.User, ss.N, uint32(math.MaxUint32))
		}
		o, err := ord(ss.User, "slot counter")
		if err != nil {
			return nil, err
		}
		p.user(o).slots = uint32(ss.N)
	}
	return p, nil
}

func fitsSlot(n int) bool { return n >= 0 && uint64(n) <= math.MaxUint32 }
