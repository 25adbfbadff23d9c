package delivery

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pii"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
	"github.com/treads-project/treads/internal/workload"
)

// scanBrowse is the serve path as it was before the campaign index, kept as
// the oracle Browse is compared against: for every slot it walks every
// registered campaign in registration order and evaluates the campaign's
// spec against the profile from scratch. It advances the same pipeline
// state Browse does (slots, feed, accounts, campaign totals, RNG).
func scanBrowse(p *Pipeline, auds map[audience.AudienceID]*audience.Audience, uid profile.UserID, slots int) []ad.Impression {
	prof := p.store.Get(uid)
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.user(prof.Ord())
	var session []ad.Impression
	for s := 0; s < slots; s++ {
		slot := u.slots
		u.slots++
		var bids []auction.Bid
		for _, c := range p.campaigns {
			if c.Paused || u.seen(c.ord) >= c.frequencyCap() {
				continue
			}
			if c.Budget > 0 && c.totals.Spend >= c.Budget {
				continue
			}
			if scanMatches(p.engine, auds, c.Spec, prof) {
				bids = append(bids, auction.Bid{CampaignID: c.ID, CapCPM: c.BidCapCPM})
			}
		}
		out := auction.Run(bids, p.market, p.rng)
		if !out.Won {
			continue
		}
		c := p.byID[out.CampaignID]
		imp := ad.Impression{CampaignID: c.ID, Advertiser: c.Advertiser, Creative: c.Creative, Slot: int(slot)}
		p.deliver(u, c, slot, out.PricePaid)
		session = append(session, imp)
	}
	return session
}

// scanMatches evaluates a spec the long way round: audiences looked up by
// ID in the world's own list, membership by the engine's linear MemberOf,
// the expression by Expr.Match. It shares no code with Engine.Compile or
// Engine.Match.
func scanMatches(e *audience.Engine, auds map[audience.AudienceID]*audience.Audience, spec audience.Spec, p *profile.Profile) bool {
	for _, id := range spec.IncludeAll {
		if !e.MemberOf(auds[id], p) {
			return false
		}
	}
	in := len(spec.Include) == 0
	for _, id := range spec.Include {
		in = in || e.MemberOf(auds[id], p)
	}
	if !in {
		return false
	}
	for _, id := range spec.Exclude {
		if e.MemberOf(auds[id], p) {
			return false
		}
	}
	return spec.Expr == nil || spec.Expr.Match(p)
}

// serveWorld is one complete delivery stack over a generated population,
// with one audience of every kind. The differential test builds two from
// the same seed and drives one through Browse, the other through
// scanBrowse.
type serveWorld struct {
	store  *profile.Store
	pixels *pixel.Registry
	engine *audience.Engine
	pipe   *Pipeline
	profs  []*profile.Profile
	px     pixel.PixelID
	auds   []audience.AudienceID // pii, engagement, website, affinity, lookalike
	byID   map[audience.AudienceID]*audience.Audience
}

const servePage = "serve-diff-page"

func newServeWorld(t testing.TB, cfg workload.Config, indexed bool, auctionSeed uint64) *serveWorld {
	t.Helper()
	w := &serveWorld{store: profile.NewStore(), pixels: pixel.NewRegistry()}
	w.engine = audience.NewEngine(w.store, w.pixels)
	if indexed {
		if err := w.engine.EnableIndex(); err != nil {
			t.Fatal(err)
		}
	}
	workload.Each(cfg, func(p *profile.Profile) {
		if err := w.store.Add(p); err != nil {
			t.Fatal(err)
		}
		w.profs = append(w.profs, p)
	})
	var keys []pii.MatchKey
	for i := 0; i < len(w.profs); i += 3 {
		keys = append(keys, w.profs[i].PII().MatchKeys()...)
	}
	list := w.engine.CreatePIIAudience("adv", "pii", keys)
	eng := w.engine.CreateEngagementAudience("adv", "fans", servePage)
	for i := 0; i < len(w.profs); i += 2 {
		w.profs[i].Like(servePage)
	}
	w.px = w.pixels.Issue("adv").ID
	for i := 0; i < len(w.profs); i += 4 {
		if err := w.pixels.RecordVisit(w.px, w.profs[i].Ord()); err != nil {
			t.Fatal(err)
		}
	}
	web, err := w.engine.CreateWebsiteAudience("adv", "visitors", w.px)
	if err != nil {
		t.Fatal(err)
	}
	aff, err := w.engine.CreateAffinityAudience("adv", "aff", []string{"Jazz", "Running"}, attr.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	look, err := w.engine.CreateLookalikeAudience("adv", "look", list.ID, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	w.byID = map[audience.AudienceID]*audience.Audience{}
	for _, a := range []*audience.Audience{list, eng, web, aff, look} {
		w.auds = append(w.auds, a.ID)
		w.byID[a.ID] = a
	}
	w.pipe = NewPipeline(w.store, w.engine, auction.DefaultMarket(), stats.NewRNG(auctionSeed))
	return w
}

// serveExprs is the expression pool campaigns draw from: everything in the
// shared parser corpus that parses, plus expressions over attributes the
// population really holds, in every keying shape — keyed directly, through
// an AND (first and later operand), by value, and not keyed at all.
func serveExprs(profs []*profile.Profile) []attr.Expr {
	exprs := []attr.Expr{nil}
	for _, in := range attr.ExprCorpus() {
		if e, err := attr.Parse(in); err == nil {
			exprs = append(exprs, e)
		}
	}
	for i := 0; i < len(profs); i += len(profs) / 8 {
		p := profs[i]
		ids := p.Attrs()
		if len(ids) < 2 {
			continue
		}
		a, b := ids[0], ids[len(ids)-1]
		exprs = append(exprs,
			attr.Has{ID: a},
			attr.And{Ops: []attr.Expr{attr.Has{ID: a}, attr.AgeBetween{Min: 18, Max: 50}}},
			attr.And{Ops: []attr.Expr{attr.CountryIs{Country: p.Country()}, attr.Has{ID: b}}},
			attr.And{Ops: []attr.Expr{attr.Has{ID: a}, attr.Not{Op: attr.Has{ID: b}}}},
			attr.Or{Ops: []attr.Expr{attr.Has{ID: a}, attr.Has{ID: b}}},
			attr.Or{Ops: []attr.Expr{attr.AgeBetween{Min: p.Age(), Max: p.Age() + 20}, attr.GenderIs{Gender: p.Sex}}},
			attr.Not{Op: attr.Has{ID: a}},
		)
		for _, id := range ids {
			if v, ok := p.AttrValue(id); ok {
				exprs = append(exprs, attr.ValueIs{ID: id, Value: v},
					attr.And{Ops: []attr.Expr{attr.RegionIs{Region: p.Region()}, attr.ValueIs{ID: id, Value: v}}})
				break
			}
		}
	}
	return exprs
}

// TestBrowseMatchesPerSlotScan is the replay contract as a differential
// test: over seeded scripts of campaign registrations, pauses, likes,
// unlikes, pixel visits and browses, Browse delivers the impressions the
// per-slot scan delivers, browse by browse, and leaves the same RNG state,
// ledger and pipeline snapshot — index-backed and scan-only.
func TestBrowseMatchesPerSlotScan(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("indexed=%v/seed=%d", indexed, seed), func(t *testing.T) {
				// One population (a lookalike needs a seed audience with
				// attributes in common); the seed varies script and auctions.
				cfg := workload.Config{Users: 160, BrokerCoverage: 0.8, MeanPlatformAttrs: 20, MeanPartnerAttrs: 9, WithPII: true, Seed: 1}
				got, want := newServeWorld(t, cfg, indexed, seed), newServeWorld(t, cfg, indexed, seed)
				exprs := serveExprs(got.profs)
				rng := stats.NewRNG(seed * 977)
				pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
				auds := func() []audience.AudienceID {
					var out []audience.AudienceID
					for n := pick(3) - 1; n > 0; n-- { // usually none, sometimes one
						out = append(out, got.auds[pick(len(got.auds))])
					}
					return out
				}
				campaigns, browses, delivered, keyed := 0, 0, 0, 0
				addCampaign := func() {
					c := &Campaign{
						ID:         fmt.Sprintf("c%03d", campaigns),
						Advertiser: fmt.Sprintf("adv%d", pick(3)),
						Spec: audience.Spec{
							Include: auds(), IncludeAll: auds(), Exclude: auds(),
							Expr: exprs[pick(len(exprs))],
						},
						// Few distinct bids, so ties (broken by registration
						// order) are common.
						BidCapCPM:    money.FromDollars(float64(2 + 2*pick(4))),
						Creative:     ad.Creative{Headline: "h", Body: "b"},
						FrequencyCap: []int{0, 1, 3}[pick(3)],
						Budget:       []money.Micros{0, 0, money.FromDollars(0.01), money.FromDollars(0.05)}[pick(4)],
					}
					campaigns++
					if _, ok := attr.RequiredAttr(c.Spec.Expr); ok {
						keyed++
					}
					for _, w := range []*serveWorld{got, want} {
						if err := w.pipe.AddCampaign(c); err != nil {
							t.Fatal(err)
						}
					}
				}
				for i := 0; i < 40; i++ {
					addCampaign()
				}
				for step := 0; step < 1500; step++ {
					u := pick(len(got.profs))
					switch k := pick(20); {
					case k == 0:
						addCampaign()
					case k == 1:
						id := fmt.Sprintf("c%03d", pick(campaigns))
						for _, w := range []*serveWorld{got, want} {
							if err := w.pipe.Pause(id); err != nil {
								t.Fatal(err)
							}
						}
					case k == 2:
						got.profs[u].Like(servePage)
						want.profs[u].Like(servePage)
					case k == 3:
						got.profs[u].Unlike(servePage)
						want.profs[u].Unlike(servePage)
					case k == 4:
						for _, w := range []*serveWorld{got, want} {
							if err := w.pixels.RecordVisit(w.px, w.profs[u].Ord()); err != nil {
								t.Fatal(err)
							}
						}
					default:
						uid, slots := got.profs[u].ID, pick(12)
						g, err := got.pipe.Browse(uid, slots)
						if err != nil {
							t.Fatal(err)
						}
						w := scanBrowse(want.pipe, want.byID, uid, slots)
						if !reflect.DeepEqual(g, w) {
							t.Fatalf("step %d: browse(%s, %d)\n got %v\nwant %v", step, uid, slots, g, w)
						}
						browses++
						delivered += len(g)
					}
				}
				if a, b := got.pipe.RNGState(), want.pipe.RNGState(); a != b {
					t.Fatalf("RNG state %d, the scan's is %d", a, b)
				}
				if !reflect.DeepEqual(got.pipe.LedgerSnapshot(), want.pipe.LedgerSnapshot()) {
					t.Fatal("ledgers differ")
				}
				if !reflect.DeepEqual(got.pipe.Snapshot(), want.pipe.Snapshot()) {
					t.Fatal("pipeline snapshots differ")
				}
				if delivered < browses/2 || keyed < campaigns/5 || keyed == campaigns {
					t.Fatalf("script premise: %d impressions over %d browses, %d of %d campaigns keyed", delivered, browses, keyed, campaigns)
				}
			})
		}
	}
}
