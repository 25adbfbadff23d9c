package delivery

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
)

// TestRestoreStateRefusesFeedOfUnknownCampaign: a snapshot or -load file
// whose feeds name a campaign it does not define would restore with more
// impressions in feeds than in any report. A migration chunk like that is
// refused; so is a state.
func TestRestoreStateRefusesFeedOfUnknownCampaign(t *testing.T) {
	e := newEnv(t, 2)
	if err := e.pipe.AddCampaign(campaign("c1", "", 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.pipe.Browse("u00", 3); err != nil {
		t.Fatal(err)
	}
	s := e.pipe.Snapshot()
	restore := func(s State) (*Pipeline, error) {
		return RestoreState(s, e.store, audience.NewEngine(e.store, pixel.NewRegistry()), billing.NewLedger(), auction.DefaultMarket(), stats.NewRNG(1))
	}
	p, err := restore(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Snapshot(); !reflect.DeepEqual(got, s) {
		t.Fatalf("restored pipeline snapshots as %+v, want %+v", got, s)
	}
	s.Feeds[0].Impressions[1].CampaignID = "camp-gone"
	if _, err := restore(s); err == nil || !strings.Contains(err.Error(), `"u00"`) || !strings.Contains(err.Error(), `"camp-gone"`) {
		t.Fatalf("RestoreState = %v, want a refusal naming the user and the campaign", err)
	}
}

// TestRestoreStateRefusesImpossibleSlots: a feed row keeps its slot number in
// 32 bits, so a state whose impression sits at a slot outside 0…MaxUint32, or
// whose slot counter is outside it, is refused, naming the user, instead of
// being truncated into a different history.
func TestRestoreStateRefusesImpossibleSlots(t *testing.T) {
	last := lastSlot(t)
	e := newEnv(t, 2)
	if err := e.pipe.AddCampaign(campaign("c1", "", 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.pipe.Browse("u00", 3); err != nil {
		t.Fatal(err)
	}
	restore := func(s State) (*Pipeline, error) {
		return RestoreState(s, e.store, audience.NewEngine(e.store, pixel.NewRegistry()), billing.NewLedger(), auction.DefaultMarket(), stats.NewRNG(1))
	}
	for _, n := range []int{-1, last + 1} {
		s := e.pipe.Snapshot()
		s.Feeds[0].Impressions[1].Slot = n
		if _, err := restore(s); err == nil || !strings.Contains(err.Error(), `"u00"`) {
			t.Errorf("RestoreState of an impression at slot %d = %v, want a refusal naming the user", n, err)
		}
		s = e.pipe.Snapshot()
		s.Slots[0].N = n
		if _, err := restore(s); err == nil || !strings.Contains(err.Error(), `"u00"`) {
			t.Errorf("RestoreState of a slot counter at %d = %v, want a refusal naming the user", n, err)
		}
	}
	s := e.pipe.Snapshot()
	s.Feeds[0].Impressions[1].Slot = last
	s.Slots[0].N = last
	p, err := restore(s)
	if err != nil {
		t.Fatalf("RestoreState at the last slot: %v", err)
	}
	if got := p.Snapshot(); !reflect.DeepEqual(got, s) {
		t.Fatalf("restored pipeline snapshots as %+v, want %+v", got, s)
	}
}

// lastSlot returns math.MaxUint32 as an int, converted at run time so the
// slot-bound tests compile where int has 32 bits; they are skipped there.
func lastSlot(t *testing.T) int {
	last := uint64(math.MaxUint32)
	if last >= math.MaxInt {
		t.Skip("int has 32 bits")
	}
	return int(last)
}

// TestBrowseRefusesSlotCounterPastUint32: a browse that would carry the
// user's slot counter past MaxUint32 is refused before any draw, like one
// asking for more than MaxSlots; one that ends exactly at MaxUint32 is
// served.
func TestBrowseRefusesSlotCounterPastUint32(t *testing.T) {
	last := lastSlot(t)
	e := newEnv(t, 2)
	if err := e.pipe.AddCampaign(campaign("c1", "", 10)); err != nil {
		t.Fatal(err)
	}
	s := e.pipe.Snapshot()
	s.Slots = []SlotState{{User: "u00", N: last - 5}}
	p, err := RestoreState(s, e.store, audience.NewEngine(e.store, pixel.NewRegistry()), billing.NewLedger(), e.pipe.market, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := p.RNGState()
	if imps, err := p.Browse("u00", 10); err == nil || !strings.Contains(err.Error(), `"u00"`) {
		t.Fatalf("Browse of 10 slots at slot %d: %d impressions, err %v; want a refusal naming the user", last-5, len(imps), err)
	}
	if got := p.RNGState(); got != rng {
		t.Fatalf("the refused browse drew from the RNG: state %d, want %d", got, rng)
	}
	if got := p.Snapshot(); !reflect.DeepEqual(got, s) {
		t.Fatalf("the refused browse left %+v, want %+v", got, s)
	}
	imps, err := p.Browse("u00", 5)
	if err != nil || len(imps) != DefaultFrequencyCap {
		t.Fatalf("Browse of the last 5 slots: %v, err %v; want %d impressions", imps, err, DefaultFrequencyCap)
	}
	if imps[0].Slot != last-5 {
		t.Errorf("first impression at slot %d, want %d", imps[0].Slot, last-5)
	}
	if _, err := p.Browse("u00", 1); err == nil {
		t.Error("Browse past the last slot accepted")
	}
	if _, err := p.Browse("u00", 0); err != nil {
		t.Errorf("Browse of no slots at the last slot: %v", err)
	}
	if got := p.Snapshot().Slots; !reflect.DeepEqual(got, []SlotState{{User: "u00", N: last}}) {
		t.Errorf("slot counters %+v, want u00 at %d", got, last)
	}
}

// TestShownMatchesFeed is the model test for the frequency-cap counts: over
// seeded scripts of campaign registrations, pauses, browses and
// snapshot→restore round trips, after every step each user's shown rows
// are strictly ascending by ordinal, and each count is that campaign's
// number of rows in the user's feed (the model: a recount of the feed), no
// more than its cap. A user with an empty feed has nil shown.
func TestShownMatchesFeed(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			e := newEnv(t, 12)
			rng := stats.NewRNG(seed)
			pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
			campaigns, inserts, restores, delivered := 0, 0, 0, 0
			addCampaign := func() {
				c := campaign(fmt.Sprintf("c%03d", campaigns), []string{"", "attr(platform.music.jazz)"}[pick(2)], float64(3+pick(8)))
				c.FrequencyCap = pick(4)
				if err := e.pipe.AddCampaign(c); err != nil {
					t.Fatal(err)
				}
				campaigns++
			}
			check := func(step int) {
				for o, u := range e.pipe.users {
					uid := e.store.UserIDs()[o]
					want := make(map[uint32]int)
					u.eachRow(func(ord, _ uint32) { want[ord]++ })
					if len(u.feed) == 0 && u.shown != nil {
						t.Fatalf("step %d: %s has no impressions and shown %v", step, uid, u.shown)
					}
					if len(u.shown) != len(want) {
						t.Fatalf("step %d: %s has %d shown rows for %d campaigns in its feed: %v", step, uid, len(u.shown), len(want), u.shown)
					}
					for i, r := range u.shown {
						if i > 0 && u.shown[i-1].ord >= r.ord {
							t.Fatalf("step %d: %s's shown rows are not strictly ascending: %v", step, uid, u.shown)
						}
						if int(r.n) != want[r.ord] {
							t.Fatalf("step %d: %s shown %d impressions of campaign %d, its feed has %d", step, uid, r.n, r.ord, want[r.ord])
						}
						if c := e.pipe.campaigns[r.ord]; int(r.n) > c.frequencyCap() {
							t.Fatalf("step %d: %s shown %s %d times, over its cap %d", step, uid, c.ID, r.n, c.frequencyCap())
						}
					}
				}
			}
			for i := 0; i < 6; i++ {
				addCampaign()
			}
			for step := 0; step < 400; step++ {
				switch k := pick(20); {
				case k < 2:
					addCampaign()
				case k == 2:
					if err := e.pipe.Pause(fmt.Sprintf("c%03d", pick(campaigns))); err != nil {
						t.Fatal(err)
					}
				case k == 3:
					p, err := RestoreState(e.pipe.Snapshot(), e.store, audience.NewEngine(e.store, pixel.NewRegistry()), e.ledger, e.pipe.market, stats.NewRNG(seed+uint64(step)))
					if err != nil {
						t.Fatal(err)
					}
					e.pipe = p
					restores++
				default:
					uid := profile.UserID(fmt.Sprintf("u%02d", pick(12)))
					var last uint32 // the highest ordinal shown before the browse
					o := e.store.Get(uid).Ord()
					if int(o) < len(e.pipe.users) && len(e.pipe.users[o].shown) > 0 {
						last = e.pipe.users[o].shown[len(e.pipe.users[o].shown)-1].ord
					}
					imps, err := e.pipe.Browse(uid, pick(6))
					if err != nil {
						t.Fatal(err)
					}
					for _, imp := range imps {
						if c := e.pipe.byID[imp.CampaignID]; c.ord < last && e.pipe.users[o].seen(c.ord) == 1 {
							inserts++ // a first impression whose row went in before the last one
						}
					}
					delivered += len(imps)
				}
				check(step)
			}
			if delivered < 200 || restores == 0 || inserts == 0 {
				t.Fatalf("script premise: %d impressions, %d restores, %d rows inserted before the last", delivered, restores, inserts)
			}
		})
	}
}

// FuzzFeedRows: any feed RestoreState accepts comes back out of Snapshot as
// the same FeedState. The input is a run of 6-byte rows, a 2-byte campaign
// ordinal (taken modulo 130 campaigns, so ordinals take one uvarint byte and
// two) and a 4-byte slot. Slots may fall, repeat, or jump between 0 and
// MaxUint32, which are the largest differences a row must encode.
func FuzzFeedRows(f *testing.F) {
	const campaigns = 130
	rows := func(rs ...[2]uint32) []byte {
		var b []byte
		for _, r := range rs {
			b = binary.BigEndian.AppendUint16(b, uint16(r[0]))
			b = binary.BigEndian.AppendUint32(b, r[1])
		}
		return b
	}
	f.Add([]byte(nil))
	f.Add(rows([2]uint32{0, 0}, [2]uint32{1, 1}, [2]uint32{129, 70}, [2]uint32{127, 200}))
	f.Add(rows([2]uint32{5, 100}, [2]uint32{3, 7}, [2]uint32{128, 7}, [2]uint32{0, 0}))
	f.Add(rows([2]uint32{0, math.MaxUint32}, [2]uint32{129, 0}, [2]uint32{1, math.MaxUint32}, [2]uint32{2, math.MaxUint32}))
	base := State{Slots: []SlotState{{User: "u00", N: 3}}}
	for i := 0; i < campaigns; i++ {
		base.Campaigns = append(base.Campaigns, CampaignState{
			ID: fmt.Sprintf("c%03d", i), Advertiser: fmt.Sprintf("adv%d", i%3),
			BidCapCPM: money.FromDollars(1), Creative: ad.Creative{Headline: fmt.Sprintf("h%d", i)},
		})
	}
	store := profile.NewStore() // holding the one user the state names
	if err := store.Add(profile.New("u00")); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var imps []ad.Impression
		for ; len(in) >= 6; in = in[6:] {
			c := base.Campaigns[int(binary.BigEndian.Uint16(in))%campaigns]
			imps = append(imps, ad.Impression{CampaignID: c.ID, Advertiser: c.Advertiser, Creative: c.Creative, Slot: int(binary.BigEndian.Uint32(in[2:]))})
		}
		s := base
		if len(imps) > 0 {
			s.Feeds = []FeedState{{User: "u00", Impressions: imps}}
		}
		p, err := RestoreState(s, store, audience.NewEngine(store, pixel.NewRegistry()), billing.NewLedger(), auction.DefaultMarket(), stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Snapshot().Feeds; !reflect.DeepEqual(got, s.Feeds) {
			t.Fatalf("restored feed snapshots as %#v, want %#v", got, s.Feeds)
		}
	})
}
