package billing_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/delivery"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
)

// ledger is a delivery pipeline driven as the ledger it keeps. A campaign
// is shown to a user only while the user likes the page named after it, so
// charge delivers exactly the impression it names, and the market is
// constant, so every impression costs price.
type ledger struct {
	t      testing.TB
	store  *profile.Store
	engine *audience.Engine
	pipe   *delivery.Pipeline
	price  money.Micros
}

func newLedger(t testing.TB, users int, price money.Micros) *ledger {
	t.Helper()
	store := profile.NewStore()
	for i := 0; i < users; i++ {
		if err := store.Add(profile.New(user(i))); err != nil {
			t.Fatal(err)
		}
	}
	engine := audience.NewEngine(store, pixel.NewRegistry())
	// One bidder against a constant competitor pays the competitor's bid.
	market := auction.Market{BaseCPM: price * 1000, Sigma: 0}
	return &ledger{t: t, store: store, engine: engine, price: price,
		pipe: delivery.NewPipeline(store, engine, market, stats.NewRNG(1))}
}

func user(i int) profile.UserID { return profile.UserID(fmt.Sprintf("u%04d", i)) }

// campaign registers the campaign on its first use.
func (l *ledger) campaign(id string) {
	if _, ok := l.pipe.Campaign(id); ok {
		return
	}
	fans := l.engine.CreateEngagementAudience("adv", id, id)
	c := &delivery.Campaign{ID: id, Advertiser: "adv", Spec: audience.Spec{Include: []audience.AudienceID{fans.ID}},
		BidCapCPM: 2 * l.price * 1000, Creative: ad.Creative{Headline: id}, FrequencyCap: 1 << 20}
	if err := l.pipe.AddCampaign(c); err != nil {
		l.t.Fatal(err)
	}
}

// charge delivers one impression of campaign to user i.
func (l *ledger) charge(campaign string, i int) {
	l.t.Helper()
	l.campaign(campaign)
	pr := l.store.Get(user(i))
	pr.Like(campaign)
	defer pr.Unlike(campaign)
	if imps, err := l.pipe.Browse(pr.ID, 1); err != nil || len(imps) != 1 || imps[0].CampaignID != campaign {
		l.t.Fatalf("charging %s to %s: %v, %v", campaign, pr.ID, imps, err)
	}
}

func TestEmptyReport(t *testing.T) {
	l := newLedger(t, 0, 1)
	r := l.pipe.Report("nope")
	if r.Impressions != 0 || r.Reach != 0 || r.Spend != 0 {
		t.Fatalf("empty report = %+v", r)
	}
	if l.pipe.Totals("nope") != (billing.Totals{}) {
		t.Fatal("true totals of unknown campaign nonzero")
	}
}

func TestSmallAudienceNotInvoiced(t *testing.T) {
	// The paper: "The above ads had zero cost since too few users were
	// reached."
	price := money.FromDollars(0.01)
	l := newLedger(t, 2, price)
	l.charge("c1", 0)
	l.charge("c1", 1)
	r := l.pipe.Report("c1")
	if r.Spend != 0 {
		t.Fatalf("two-user campaign invoiced %v, want $0", r.Spend)
	}
	if r.Reach != 0 {
		t.Fatalf("two-user campaign reported reach %d, want 0 (suppressed)", r.Reach)
	}
	if r.Impressions != 2 {
		t.Fatalf("impressions = %d", r.Impressions)
	}
	if got := l.pipe.Totals("c1"); got != (billing.Totals{Impressions: 2, Reach: 2, Spend: price.MulInt(2)}) {
		t.Fatalf("Totals = %+v", got)
	}
}

func TestLargeAudienceInvoicedAndRounded(t *testing.T) {
	price := money.FromDollars(0.002)
	l := newLedger(t, 137, price)
	for i := 0; i < 137; i++ {
		l.charge("c1", i)
	}
	r := l.pipe.Report("c1")
	if r.Spend != price.MulInt(137) {
		t.Fatalf("spend = %v", r.Spend)
	}
	if r.Reach != 130 {
		t.Fatalf("reach = %d, want 130", r.Reach)
	}
	if r.Impressions != 137 {
		t.Fatalf("impressions = %d", r.Impressions)
	}
}

func TestRepeatImpressionsCountOnceForReach(t *testing.T) {
	l := newLedger(t, 2, money.FromDollars(0.002))
	for i := 0; i < 5; i++ {
		l.charge("c1", 1)
	}
	if got := l.pipe.Totals("c1").Reach; got != 1 {
		t.Fatalf("reach = %d", got)
	}
	if r := l.pipe.Report("c1"); r.Impressions != 5 {
		t.Fatalf("impressions = %d", r.Impressions)
	}
}

func TestZeroThresholdAblationExposesExactCounts(t *testing.T) {
	l := newLedger(t, 2, money.FromDollars(0.002))
	l.pipe.SetBillableThreshold(0)
	l.charge("c1", 1)
	r := l.pipe.Report("c1")
	if r.Reach != 1 {
		t.Fatalf("ablation reach = %d, want exact 1", r.Reach)
	}
	if r.Spend != money.FromDollars(0.002) {
		t.Fatalf("ablation spend = %v", r.Spend)
	}
}

func TestTotalInvoiced(t *testing.T) {
	price := money.FromDollars(0.002)
	l := newLedger(t, 26, price)
	// c-big crosses the threshold; c-small does not.
	for i := 0; i < 25; i++ {
		l.charge("c-big", i)
	}
	l.charge("c-small", 25)
	for id, want := range map[string]money.Micros{"c-big": price.MulInt(25), "c-small": 0, "c-none": 0} {
		if got := l.pipe.Report(id).Spend; got != want {
			t.Fatalf("%s invoiced %v, want %v", id, got, want)
		}
	}
}

func TestReportString(t *testing.T) {
	r := billing.Report{CampaignID: "c1", Impressions: 3, Reach: 0, Spend: money.FromDollars(0.006)}
	s := r.String()
	if !strings.Contains(s, "c1") || !strings.Contains(s, "$0.006") {
		t.Fatalf("Report.String() = %q", s)
	}
}

func TestLedgerConcurrent(t *testing.T) {
	l := newLedger(t, 1600, money.Micro)
	l.campaign("c1")
	for i := 0; i < 1600; i++ {
		l.store.Get(user(i)).Like("c1")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := l.pipe.Browse(user(g*200+i), 1); err != nil {
					t.Error(err)
				}
				_ = l.pipe.Report("c1")
			}
		}(g)
	}
	wg.Wait()
	if got := l.pipe.Totals("c1").Reach; got != 1600 {
		t.Fatalf("reach = %d, want 1600", got)
	}
	if l.pipe.Report("c1").Spend != 1600 {
		t.Fatalf("Spend = %v", l.pipe.Report("c1").Spend)
	}
}

// TestStateNamesRowsByUserID: a snapshot names each row's user by its ID in
// the store, sorted, and a row of a user the store does not hold is refused
// on restore, naming the campaign and the user.
func TestStateNamesRowsByUserID(t *testing.T) {
	const price = 100
	l := newLedger(t, 4, price)
	for _, c := range []struct {
		campaign string
		user     int
	}{{"c1", 0}, {"c1", 0}, {"c1", 1}, {"c2", 2}, {"c2", 1}} {
		l.charge(c.campaign, c.user)
	}
	s := l.pipe.LedgerSnapshot()
	want := []billing.UserAccountState{{User: user(1), Impressions: 1, Spend: price}, {User: user(2), Impressions: 1, Spend: price}}
	if len(s.Accounts) != 2 || s.Accounts[1].CampaignID != "c2" || fmt.Sprint(s.Accounts[1].Users) != fmt.Sprint(want) {
		t.Fatalf("Snapshot = %+v, want c2's rows %+v", s, want)
	}
	s.Accounts[1].Users = append(s.Accounts[1].Users, billing.UserAccountState{User: "erin", Impressions: 1, Spend: 1})
	s.Accounts[1].Impressions++
	s.Accounts[1].Spend++
	_, err := delivery.RestoreState(l.pipe.Snapshot(), s, l.store, l.engine, auction.DefaultMarket(), stats.NewRNG(1))
	if err == nil || !strings.Contains(err.Error(), `"c2"`) || !strings.Contains(err.Error(), `"erin"`) {
		t.Fatalf("restoring a row of a user the store does not hold: %v, want an error naming the campaign and the user", err)
	}
}
