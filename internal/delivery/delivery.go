// Package delivery implements the platform's ad-delivery pipeline: the loop
// that fills a user's feed slots by auctioning each slot among the eligible
// campaigns.
//
// A campaign is eligible for a slot exactly when the browsing user matches
// its targeting spec (and it is active, funded, and under its frequency
// cap). That "sees it ⇔ matches it" contract is the entire foundation of
// Treads: "a user is supposed to see a targeted ad if and only if they
// satisfy the advertiser's targeting parameters" (§1).
package delivery

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
)

// DefaultFrequencyCap is the maximum number of times one campaign is shown
// to one user unless the campaign overrides it.
const DefaultFrequencyCap = 2

// Campaign is an ad campaign as the delivery pipeline sees it.
type Campaign struct {
	ID         string
	Advertiser string
	Spec       audience.Spec
	// BidCapCPM is the maximum bid per thousand impressions. The
	// validation in §3.1 set this to $10 CPM, five times the $2 default.
	BidCapCPM money.Micros
	Creative  ad.Creative
	// FrequencyCap limits impressions per user; 0 means
	// DefaultFrequencyCap.
	FrequencyCap int
	// Budget caps the campaign's total spend; once accrued spend reaches
	// it the campaign stops entering auctions. Zero means unlimited.
	Budget money.Micros
	// Paused campaigns never enter auctions.
	Paused bool
}

func (c *Campaign) frequencyCap() int {
	if c.FrequencyCap <= 0 {
		return DefaultFrequencyCap
	}
	return c.FrequencyCap
}

// MaxSlots bounds the slots one Browse may ask for. Every entry point
// (HTTP, shard RPC, a journal record) ends in Pipeline.Browse, so the bound
// is enforced there and nowhere else. Browse also refuses a call that would
// carry the user's slot counter past math.MaxUint32: a feed row keeps its
// slot number in 32 bits.
const MaxSlots = 10000

// Pipeline runs slot auctions and maintains user feeds. It is safe for
// concurrent use.
type Pipeline struct {
	engine *audience.Engine
	store  *profile.Store
	ledger *billing.Ledger
	market auction.Market

	mu        sync.Mutex
	rng       *stats.RNG
	campaigns []*registered          // registration order, which is auction order
	byID      map[string]*registered // index over campaigns
	users     map[profile.UserID]*userState

	// The campaign index: a campaign's ordinal (its position in campaigns)
	// is filed under the attribute its expression requires of a matching
	// user (attr.RequiredAttr), or in unkeyed when it requires none. A
	// browse evaluates only unkeyed ∪ keyed[a] for the attributes a the
	// user holds. Nothing derived from a profile is kept between browses.
	keyed   map[attr.ID][]int
	unkeyed []int

	// Scratch reused by every browse, owned by mu.
	candidates []uint64      // bitset over ordinals
	matched    []*registered // this browse's matching campaigns, in order
	bids       []auction.Bid // one slot's bids
}

// registered is a campaign plus what AddCampaign worked out about it once.
type registered struct {
	Campaign
	compiled audience.Compiled // Spec with its audience IDs resolved
	// ord is the campaign's position in Pipeline.campaigns. No campaign is
	// ever unregistered, so it names the campaign for the pipeline's life.
	ord uint32
}

// userState is everything delivery keeps about one user. slots and feed are
// persisted (State.Slots, State.Feeds). shown is an index over feed — how
// many of its impressions are each campaign's — that the frequency-cap
// check reads; it is never serialized, RestoreState recounts it, and it is
// nil until the user's first impression. The ledger's per-user rows hold
// the same counts as money is owed on them; fillSlot advances feed, shown
// and ledger together under p.mu. Neither slice holds a pointer, so the
// collector never scans a user's rows.
type userState struct {
	slots uint32     // slot auctions run for the user, won or lost
	feed  []feedRow  // every impression delivered, oldest first
	shown []shownRow // impressions in feed per campaign, ascending by ord
}

// feedRow is one delivered impression as a feed keeps it, in 8 bytes: the
// campaign's ordinal and the slot. The rest of an ad.Impression is the
// campaign's — one is never unregistered, and its ID, advertiser and
// creative never change once AddCampaign has copied them — so it is filled
// in where an impression is handed out (Pipeline.impression).
type feedRow struct {
	ord, slot uint32
}

// shownRow is how many of a user's impressions are one campaign's.
type shownRow struct {
	ord, n uint32
}

// seen returns how many impressions of campaign ord are in u.feed.
func (u *userState) seen(ord uint32) int {
	if i, ok := u.shownAt(ord); ok {
		return int(u.shown[i].n)
	}
	return 0
}

// count records one more impression of campaign ord in u.feed.
func (u *userState) count(ord uint32) {
	i, ok := u.shownAt(ord)
	if ok {
		u.shown[i].n++
		return
	}
	u.shown = slices.Insert(u.shown, i, shownRow{ord: ord, n: 1})
}

// shownAt finds ord's row in u.shown, or where it would be inserted.
func (u *userState) shownAt(ord uint32) (int, bool) {
	return slices.BinarySearchFunc(u.shown, ord, func(r shownRow, ord uint32) int { return cmp.Compare(r.ord, ord) })
}

// impression builds the ad.Impression a feed row stands for. Callers hold
// p.mu.
func (p *Pipeline) impression(r feedRow) ad.Impression {
	c := p.campaigns[r.ord]
	return ad.Impression{CampaignID: c.ID, Advertiser: c.Advertiser, Creative: c.Creative, Slot: int(r.slot)}
}

// impressions is u's feed as it is handed out, nil when empty. Callers hold
// p.mu.
func (p *Pipeline) impressions(u *userState) []ad.Impression {
	if len(u.feed) == 0 {
		return nil
	}
	out := make([]ad.Impression, len(u.feed))
	for i, r := range u.feed {
		out[i] = p.impression(r)
	}
	return out
}

// NewPipeline returns a delivery pipeline over the given components.
func NewPipeline(store *profile.Store, engine *audience.Engine, ledger *billing.Ledger, market auction.Market, rng *stats.RNG) *Pipeline {
	return &Pipeline{
		engine: engine,
		store:  store,
		ledger: ledger,
		market: market,
		rng:    rng,
		byID:   make(map[string]*registered),
		users:  make(map[profile.UserID]*userState),
		keyed:  make(map[attr.ID][]int),
	}
}

// user returns uid's record, creating it on first use. Callers hold p.mu.
func (p *Pipeline) user(uid profile.UserID) *userState {
	u := p.users[uid]
	if u == nil {
		u = &userState{}
		p.users[uid] = u
	}
	return u
}

// AddCampaign registers a campaign. The targeting spec must be resolvable
// and the campaign ID unique.
func (p *Pipeline) AddCampaign(c *Campaign) error {
	if c == nil || c.ID == "" {
		return fmt.Errorf("delivery: nil campaign or empty ID")
	}
	if c.BidCapCPM <= 0 {
		return fmt.Errorf("delivery: campaign %q has non-positive bid cap", c.ID)
	}
	compiled, err := p.engine.Compile(c.Spec)
	if err != nil {
		return fmt.Errorf("delivery: campaign %q: %w", c.ID, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.byID[c.ID] != nil {
		return fmt.Errorf("delivery: duplicate campaign %q", c.ID)
	}
	ord := len(p.campaigns)
	if uint64(ord) > math.MaxUint32 {
		return fmt.Errorf("delivery: campaign %q would be number %d, past the last ordinal %d", c.ID, ord, uint32(math.MaxUint32))
	}
	// The registered campaign is the pipeline's own copy: it is read and
	// written (Pause flips Paused) only under p.mu, so no caller holds it.
	reg := &registered{Campaign: *c, compiled: compiled, ord: uint32(ord)}
	p.campaigns = append(p.campaigns, reg)
	p.byID[c.ID] = reg
	if id, ok := attr.RequiredAttr(c.Spec.Expr); ok {
		p.keyed[id] = append(p.keyed[id], ord)
	} else {
		p.unkeyed = append(p.unkeyed, ord)
	}
	if words := ord/64 + 1; words > len(p.candidates) {
		p.candidates = append(p.candidates, 0)
	}
	return nil
}

// Campaign returns a copy of the registered campaign; ok is false when the
// ID is unknown.
func (p *Pipeline) Campaign(id string) (c Campaign, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if reg := p.byID[id]; reg != nil {
		return reg.Campaign, true
	}
	return Campaign{}, false
}

// Pause stops a campaign from entering further auctions.
func (p *Pipeline) Pause(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.byID[id]
	if c == nil {
		return fmt.Errorf("delivery: unknown campaign %q", id)
	}
	c.Paused = true
	return nil
}

// Browse simulates the user viewing `slots` feed ad slots. Each slot runs
// one auction among the eligible campaigns and the background market; won
// slots append an impression to the user's feed and charge the winner's
// ledger. It returns the impressions delivered during this session.
//
// Which campaigns match the user is worked out once, before the first slot:
// the profile and the audiences cannot change while p.mu is held.
func (p *Pipeline) Browse(uid profile.UserID, slots int) ([]ad.Impression, error) {
	prof := p.store.Get(uid)
	if prof == nil {
		return nil, fmt.Errorf("delivery: unknown user %q", uid)
	}
	if slots < 0 || slots > MaxSlots {
		return nil, fmt.Errorf("delivery: %d slots, want 0 to %d", slots, MaxSlots)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.user(uid)
	if uint64(u.slots)+uint64(slots) > math.MaxUint32 {
		return nil, fmt.Errorf("delivery: user %q has run %d slots; %d more would pass %d", uid, u.slots, slots, uint32(math.MaxUint32))
	}
	matched := p.match(prof, u)
	var session []ad.Impression
	for s := 0; s < slots; s++ {
		if imp, won := p.fillSlot(prof, u, matched); won {
			session = append(session, imp)
		}
	}
	return session, nil
}

// match returns, in registration order, the campaigns that may bid for this
// user during one browse: not paused, under their frequency cap and matching
// the user. Neither pause nor a reached cap can be undone while the caller
// holds p.mu, so dropping those here is the per-slot check made early. The
// result is scratch, valid until the next call.
func (p *Pipeline) match(prof *profile.Profile, u *userState) []*registered {
	cand := p.candidates
	for i := range cand {
		cand[i] = 0
	}
	for _, ord := range p.unkeyed {
		cand[ord/64] |= 1 << (ord % 64)
	}
	if len(p.keyed) > 0 {
		prof.EachAttr(func(id attr.ID) {
			for _, ord := range p.keyed[id] {
				cand[ord/64] |= 1 << (ord % 64)
			}
		})
	}
	matched := p.matched[:0]
	for w, word := range cand {
		for ; word != 0; word &= word - 1 {
			c := p.campaigns[w*64+bits.TrailingZeros64(word)]
			if c.Paused || u.seen(c.ord) >= c.frequencyCap() {
				continue
			}
			// The engine only reads and has its own locking; p.mu stays held
			// so the campaign list cannot change under the walk.
			if p.engine.Match(&c.compiled, prof) {
				matched = append(matched, c)
			}
		}
	}
	p.matched = matched
	return matched
}

// fillSlot auctions one slot among the browse's matched campaigns; the
// caller holds p.mu. The budget check, the auction and the winner's ledger
// charge therefore share one critical section: a campaign enters an auction
// only while its accrued spend is below its budget, so the charge that
// carries it to or over the line is its last, under any concurrency.
func (p *Pipeline) fillSlot(prof *profile.Profile, u *userState, matched []*registered) (ad.Impression, bool) {
	slot := u.slots
	u.slots++

	bids := p.bids[:0]
	for _, c := range matched {
		if u.seen(c.ord) >= c.frequencyCap() {
			continue
		}
		if c.Budget > 0 && p.ledger.TrueSpend(c.ID) >= c.Budget {
			continue
		}
		bids = append(bids, auction.Bid{CampaignID: c.ID, CapCPM: c.BidCapCPM})
	}
	p.bids = bids
	// Run draws the market's competing bid exactly once, bids or no bids:
	// journal replay reproduces a browse by drawing the same sequence.
	out := auction.Run(bids, p.market, p.rng)
	auctionsRun.Inc()
	if !out.Won {
		return ad.Impression{}, false
	}
	row := feedRow{ord: p.byID[out.CampaignID].ord, slot: slot}
	u.feed = append(u.feed, row)
	u.count(row.ord)
	p.ledger.RecordImpression(out.CampaignID, prof.ID, out.PricePaid)
	impressionsServed.Inc()
	return p.impression(row), true
}

// CustomDataAdvertisers returns, in registration order and without
// duplicates, the advertisers with an unpaused campaign that reaches the
// profile through a PII-list or website custom audience the user is in. The
// result is never nil.
func (p *Pipeline) CustomDataAdvertisers(prof *profile.Profile) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := []string{}
	seen := make(map[string]bool)
	for _, c := range p.campaigns {
		// False at once for a spec that names no such audience.
		if c.Paused || !p.engine.UsesCustomDataOn(&c.compiled, prof) {
			continue
		}
		if !seen[c.Advertiser] {
			seen[c.Advertiser] = true
			out = append(out, c.Advertiser)
		}
	}
	return out
}

// RNGState returns the auction RNG's current state. Snapshotting with
// this value as the reseed makes a restored pipeline draw the exact same
// auction randomness the live pipeline would have — the property the
// journal's deterministic replay depends on.
func (p *Pipeline) RNGState() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.State()
}

// Feed returns every impression ever delivered to the user, oldest first.
func (p *Pipeline) Feed(uid profile.UserID) []ad.Impression {
	p.mu.Lock()
	defer p.mu.Unlock()
	if u := p.users[uid]; u != nil {
		return p.impressions(u)
	}
	return nil
}
