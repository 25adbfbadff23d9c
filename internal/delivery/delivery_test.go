package delivery

import (
	"fmt"
	"sync"
	"testing"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
)

// env bundles a pipeline over n users; even users have the jazz attribute.
// The market is deterministic at $2 CPM so a $10 bid always wins.
type env struct {
	store  *profile.Store
	ledger pipelineLedger
	pipe   *Pipeline
}

// pipelineLedger reads the env's pipeline's totals through the accessors
// the billing ledger had.
type pipelineLedger struct{ pipe **Pipeline }

func (l pipelineLedger) TrueSpend(id string) money.Micros { return (*l.pipe).Totals(id).Spend }
func (l pipelineLedger) TrueImpressions(id string) int    { return (*l.pipe).Totals(id).Impressions }

func newEnv(t testing.TB, n int) *env {
	t.Helper()
	store := profile.NewStore()
	for i := 0; i < n; i++ {
		p := profile.New(profile.UserID(fmt.Sprintf("u%02d", i)))
		p.SetCountry("US")
		p.AgeYrs = 30
		if i%2 == 0 {
			p.SetAttr("platform.music.jazz")
		}
		if err := store.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	eng := audience.NewEngine(store, pixel.NewRegistry())
	market := auction.Market{BaseCPM: money.FromDollars(2), Sigma: 0, Floor: money.FromDollars(0.1)}
	e := &env{store: store, pipe: NewPipeline(store, eng, market, stats.NewRNG(1))}
	e.ledger = pipelineLedger{&e.pipe}
	return e
}

func campaign(id string, expr string, bidDollars float64) *Campaign {
	var e attr.Expr = attr.MatchAll{}
	if expr != "" {
		e = attr.MustParse(expr)
	}
	return &Campaign{
		ID:         id,
		Advertiser: "adv1",
		Spec:       audience.Spec{Expr: e},
		BidCapCPM:  money.FromDollars(bidDollars),
		Creative:   ad.Creative{Headline: id, Body: "body of " + id},
	}
}

func TestAddCampaignValidation(t *testing.T) {
	e := newEnv(t, 2)
	if err := e.pipe.AddCampaign(nil); err == nil {
		t.Error("nil campaign accepted")
	}
	if err := e.pipe.AddCampaign(&Campaign{ID: "", BidCapCPM: 1}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := e.pipe.AddCampaign(&Campaign{ID: "c", BidCapCPM: 0}); err == nil {
		t.Error("zero bid accepted")
	}
	bad := campaign("c", "", 10)
	bad.Spec.Include = []audience.AudienceID{"aud-nope"}
	if err := e.pipe.AddCampaign(bad); err == nil {
		t.Error("unknown audience accepted")
	}
	good := campaign("c", "", 10)
	if err := e.pipe.AddCampaign(good); err != nil {
		t.Fatal(err)
	}
	if err := e.pipe.AddCampaign(campaign("c", "", 10)); err == nil {
		t.Error("duplicate campaign accepted")
	}
	if c, ok := e.pipe.Campaign("c"); !ok || c.ID != "c" || c.Creative.Body != good.Creative.Body {
		t.Error("Campaign() returned wrong campaign")
	}
	if _, ok := e.pipe.Campaign("nope"); ok {
		t.Error("unknown campaign reported as registered")
	}
}

func TestTargetedDeliveryContract(t *testing.T) {
	// The Treads foundation: a user sees the ad iff they match.
	e := newEnv(t, 10)
	if err := e.pipe.AddCampaign(campaign("jazz", "attr(platform.music.jazz)", 10)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		uid := profile.UserID(fmt.Sprintf("u%02d", i))
		imps, err := e.pipe.Browse(uid, 5)
		if err != nil {
			t.Fatal(err)
		}
		saw := len(imps) > 0
		matches := i%2 == 0
		if saw != matches {
			t.Errorf("user %s: saw=%v matches=%v", uid, saw, matches)
		}
	}
}

func TestBrowseUnknownUser(t *testing.T) {
	e := newEnv(t, 1)
	if _, err := e.pipe.Browse("ghost", 3); err == nil {
		t.Error("unknown user accepted")
	}
}

func TestBrowseSlotsBounded(t *testing.T) {
	e := newEnv(t, 1)
	if err := e.pipe.AddCampaign(campaign("c", "", 10)); err != nil {
		t.Fatal(err)
	}
	for _, slots := range []int{-1, MaxSlots + 1, 1_000_000_000} {
		if imps, err := e.pipe.Browse("u00", slots); err == nil || imps != nil {
			t.Errorf("Browse with %d slots: %d impressions, err %v; want a refusal", slots, len(imps), err)
		}
	}
	if got := e.pipe.Snapshot(); len(got.Slots) != 0 || len(got.Feeds) != 0 {
		t.Fatalf("refused browses left state behind: %+v", got)
	}
	if imps, err := e.pipe.Browse("u00", MaxSlots); err != nil || len(imps) != DefaultFrequencyCap {
		t.Fatalf("Browse with MaxSlots slots: %d impressions, err %v", len(imps), err)
	}
}

// TestShownAllocatedOnFirstImpression: a user who browses and wins nothing
// costs a slot counter, not a slice of counts.
func TestShownAllocatedOnFirstImpression(t *testing.T) {
	e := newEnv(t, 2)
	if err := e.pipe.AddCampaign(campaign("jazz", "attr(platform.music.jazz)", 10)); err != nil {
		t.Fatal(err)
	}
	for _, uid := range []profile.UserID{"u00", "u01"} {
		if _, err := e.pipe.Browse(uid, 3); err != nil {
			t.Fatal(err)
		}
	}
	if u := e.pipe.users[e.store.Get("u01").Ord()]; u.slots != 3 || u.shown != nil {
		t.Errorf("u01 won nothing: slots %d, shown %v; want 3 and no rows", u.slots, u.shown)
	}
	if u := e.pipe.users[e.store.Get("u00").Ord()]; u.seen(e.pipe.byID["jazz"].ord) != DefaultFrequencyCap {
		t.Errorf("u00 shown = %v, want jazz at the default cap", u.shown)
	}
}

// TestBrowseZeroAlloc pins the serve path's steady state on the paper's
// deployment (614 keyed Treads, index on): a 10-slot browse allocates
// nothing, both for an opted-in user at their caps (candidates gathered,
// every one dropped at its cap, ten empty auctions) and for a user who never
// opted in (candidates gathered, every spec evaluated and rejected).
func TestBrowseZeroAlloc(t *testing.T) {
	pipe, profs := newTreadsDeployment(t, 8)
	in, out := profs[0], profs[1]
	imps, err := pipe.Browse(in.ID, 200)
	if err != nil {
		t.Fatal(err)
	}
	held, catalog := 0, attr.DefaultCatalog()
	in.EachAttr(func(id attr.ID) {
		if catalog.Get(id).Source == attr.SourcePlatform {
			held++
		}
	})
	if len(imps) != held || held < 5 {
		t.Fatalf("premise: the opted-in user holds %d platform attributes and was shown %d Treads", held, len(imps))
	}
	for name, uid := range map[string]profile.UserID{"at caps": in.ID, "not opted in": out.ID} {
		allocs := testing.AllocsPerRun(100, func() {
			if imps, err := pipe.Browse(uid, 10); err != nil || len(imps) != 0 {
				t.Fatalf("%s: %d impressions, err %v", name, len(imps), err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a 10-slot browse allocates %.1f times, want 0", name, allocs)
		}
	}
}

func TestFrequencyCap(t *testing.T) {
	e := newEnv(t, 2)
	c := campaign("c1", "", 10)
	c.FrequencyCap = 3
	if err := e.pipe.AddCampaign(c); err != nil {
		t.Fatal(err)
	}
	imps, err := e.pipe.Browse("u00", 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) != 3 {
		t.Fatalf("delivered %d impressions, want frequency cap 3", len(imps))
	}
	if got := len(e.pipe.Feed("u00")); got != 3 {
		t.Fatalf("feed has %d impressions", got)
	}
}

func TestDefaultFrequencyCap(t *testing.T) {
	e := newEnv(t, 1)
	if err := e.pipe.AddCampaign(campaign("c1", "", 10)); err != nil {
		t.Fatal(err)
	}
	imps, _ := e.pipe.Browse("u00", 10)
	if len(imps) != DefaultFrequencyCap {
		t.Fatalf("delivered %d, want default cap %d", len(imps), DefaultFrequencyCap)
	}
}

func TestPausedCampaignDoesNotDeliver(t *testing.T) {
	e := newEnv(t, 1)
	if err := e.pipe.AddCampaign(campaign("c1", "", 10)); err != nil {
		t.Fatal(err)
	}
	if err := e.pipe.Pause("c1"); err != nil {
		t.Fatal(err)
	}
	imps, _ := e.pipe.Browse("u00", 5)
	if len(imps) != 0 {
		t.Fatalf("paused campaign delivered %d impressions", len(imps))
	}
	if err := e.pipe.Pause("nope"); err == nil {
		t.Error("pausing unknown campaign accepted")
	}
}

func TestLowBidLosesToMarket(t *testing.T) {
	e := newEnv(t, 1)
	// Market is fixed at $2; a $1 bid never wins.
	if err := e.pipe.AddCampaign(campaign("cheap", "", 1)); err != nil {
		t.Fatal(err)
	}
	imps, _ := e.pipe.Browse("u00", 20)
	if len(imps) != 0 {
		t.Fatalf("under-market bid delivered %d impressions", len(imps))
	}
}

func TestHighestBidderWinsSlot(t *testing.T) {
	e := newEnv(t, 1)
	if err := e.pipe.AddCampaign(campaign("low", "", 5)); err != nil {
		t.Fatal(err)
	}
	if err := e.pipe.AddCampaign(campaign("high", "", 10)); err != nil {
		t.Fatal(err)
	}
	imps, _ := e.pipe.Browse("u00", 1)
	if len(imps) != 1 || imps[0].CampaignID != "high" {
		t.Fatalf("impressions = %v", imps)
	}
}

func TestSecondPriceBilling(t *testing.T) {
	e := newEnv(t, 1)
	if err := e.pipe.AddCampaign(campaign("c1", "", 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.pipe.Browse("u00", 1); err != nil {
		t.Fatal(err)
	}
	// Winner pays the $2 market bid -> $0.002 per impression.
	if spend := e.ledger.TrueSpend("c1"); spend != money.FromDollars(0.002) {
		t.Fatalf("spend = %v, want $0.002", spend)
	}
}

func TestImpressionsCounter(t *testing.T) {
	e := newEnv(t, 4)
	c := campaign("c1", "", 10)
	c.FrequencyCap = 1
	if err := e.pipe.AddCampaign(c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := e.pipe.Browse(profile.UserID(fmt.Sprintf("u%02d", i)), 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.ledger.TrueImpressions("c1"); got != 4 {
		t.Fatalf("TrueImpressions = %d, want 4", got)
	}
}

func TestSlotIndicesMonotonic(t *testing.T) {
	e := newEnv(t, 1)
	c := campaign("c1", "", 10)
	c.FrequencyCap = 100
	if err := e.pipe.AddCampaign(c); err != nil {
		t.Fatal(err)
	}
	if _, err := e.pipe.Browse("u00", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.pipe.Browse("u00", 3); err != nil {
		t.Fatal(err)
	}
	feed := e.pipe.Feed("u00")
	if len(feed) != 6 {
		t.Fatalf("feed length = %d", len(feed))
	}
	for i := 1; i < len(feed); i++ {
		if feed[i].Slot <= feed[i-1].Slot {
			t.Fatalf("slots not monotonic: %v", feed)
		}
	}
}

func TestFeedIsolation(t *testing.T) {
	e := newEnv(t, 2)
	if err := e.pipe.AddCampaign(campaign("jazz", "attr(platform.music.jazz)", 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.pipe.Browse("u00", 3); err != nil {
		t.Fatal(err)
	}
	if len(e.pipe.Feed("u01")) != 0 {
		t.Fatal("impressions leaked into another user's feed")
	}
	// Returned slice is a copy.
	f := e.pipe.Feed("u00")
	if len(f) == 0 {
		t.Fatal("no impressions delivered")
	}
	f[0].CampaignID = "tampered"
	if e.pipe.Feed("u00")[0].CampaignID == "tampered" {
		t.Fatal("Feed returned a live reference")
	}
}

func TestBudgetStopsDelivery(t *testing.T) {
	// 30 users, $10 bid vs $2 fixed market: each impression costs $0.002.
	// A $0.01 budget funds exactly 5 impressions.
	e := newEnv(t, 30)
	c := campaign("budgeted", "", 10)
	c.FrequencyCap = 1
	c.Budget = money.FromDollars(0.01)
	if err := e.pipe.AddCampaign(c); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 0; i < 30; i++ {
		imps, err := e.pipe.Browse(profile.UserID(fmt.Sprintf("u%02d", i)), 1)
		if err != nil {
			t.Fatal(err)
		}
		delivered += len(imps)
	}
	if delivered != 5 {
		t.Fatalf("delivered %d impressions on a 5-impression budget", delivered)
	}
	if spend := e.ledger.TrueSpend("budgeted"); spend > c.Budget {
		t.Fatalf("spend %v exceeded budget %v", spend, c.Budget)
	}
}

func TestZeroBudgetMeansUnlimited(t *testing.T) {
	e := newEnv(t, 10)
	c := campaign("unlimited", "", 10)
	c.FrequencyCap = 1
	if err := e.pipe.AddCampaign(c); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 0; i < 10; i++ {
		imps, _ := e.pipe.Browse(profile.UserID(fmt.Sprintf("u%02d", i)), 1)
		delivered += len(imps)
	}
	if delivered != 10 {
		t.Fatalf("delivered %d, want all 10", delivered)
	}
}

// TestBudgetLineUnderConcurrentBrowse pins that the budget check and the
// ledger charge share one critical section: with a budget of exactly three
// clearing prices, 64 users browsing one slot each at once buy exactly
// three impressions, as they would one after another. Charging after the
// pipeline lock was released let concurrent slots all pass the check
// before any spend landed.
func TestBudgetLineUnderConcurrentBrowse(t *testing.T) {
	const users, rounds = 64, 200
	price := money.FromDollars(0.002) // the $2 CPM market's clearing price per impression
	for round := 0; round < rounds; round++ {
		e := newEnv(t, users)
		c := campaign("budgeted", "", 10)
		c.FrequencyCap = 1
		c.Budget = 3 * price
		if err := e.pipe.AddCampaign(c); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < users; i++ {
			wg.Add(1)
			go func(uid profile.UserID) {
				defer wg.Done()
				<-start
				if _, err := e.pipe.Browse(uid, 1); err != nil {
					t.Error(err)
				}
			}(profile.UserID(fmt.Sprintf("u%02d", i)))
		}
		close(start)
		wg.Wait()
		if spend := e.ledger.TrueSpend("budgeted"); spend != c.Budget {
			t.Fatalf("round %d: spend %v, want exactly the budget %v (%d impressions)",
				round, spend, c.Budget, e.ledger.TrueImpressions("budgeted"))
		}
	}
}
