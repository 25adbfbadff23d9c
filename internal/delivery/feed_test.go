package delivery

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/auction"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
)

// TestFeedFootprint is the tripwire on what a delivered impression costs a
// shard to remember. 2 000 users, each in the audience of one of 16
// campaigns, first browse one slot — which creates the user's record, its
// cap counter and its ledger row — and then 50 more: those 100 000
// impressions may grow the live heap by under 40 bytes each, which is a
// 16-byte feed row and the slack append leaves. A row that copies its
// campaign's advertiser and creative is 128 bytes before any slack.
func TestFeedFootprint(t *testing.T) {
	if size := unsafe.Sizeof(feedRow{}); size > 16 {
		t.Errorf("a feed row is %d bytes, want at most 16", size)
	}
	const users, campaigns, perUser = 2000, 16, 50
	store := profile.NewStore()
	for i := 0; i < users; i++ {
		p := profile.New(profile.UserID(fmt.Sprintf("u%04d", i)))
		p.SetAttr(attr.ID(fmt.Sprintf("test.feed.a%02d", i%campaigns)))
		if err := store.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	market := auction.Market{BaseCPM: money.FromDollars(2), Sigma: 0, Floor: money.FromDollars(0.1)}
	pipe := NewPipeline(store, audience.NewEngine(store, pixel.NewRegistry()), billing.NewLedger(), market, stats.NewRNG(1))
	for i := 0; i < campaigns; i++ {
		c := &Campaign{
			ID:           fmt.Sprintf("camp-%06d", i),
			Advertiser:   "an advertiser",
			Spec:         audience.Spec{Expr: attr.Has{ID: attr.ID(fmt.Sprintf("test.feed.a%02d", i))}},
			BidCapCPM:    money.FromDollars(10),
			Creative:     ad.Creative{Headline: "a headline", Body: strings.Repeat("body ", 20), LandingURL: "https://example.com/landing"},
			FrequencyCap: perUser + 1,
		}
		if err := pipe.AddCampaign(c); err != nil {
			t.Fatal(err)
		}
	}
	browseAll := func(slots int) (delivered int) {
		for i := 0; i < users; i++ {
			imps, err := pipe.Browse(profile.UserID(fmt.Sprintf("u%04d", i)), slots)
			if err != nil {
				t.Fatal(err)
			}
			delivered += len(imps)
		}
		return delivered
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	if got := browseAll(1); got != users {
		t.Fatalf("premise: the first slot delivered %d impressions to %d users", got, users)
	}
	before := heap()
	delivered := browseAll(perUser)
	after := heap()
	if delivered != users*perUser {
		t.Fatalf("premise: delivered %d impressions, want %d", delivered, users*perUser)
	}
	perImpression := (int64(after) - int64(before)) / int64(delivered)
	t.Logf("%d B/impression", perImpression)
	if perImpression >= 40 {
		t.Fatalf("%d impressions grew the heap by %d B each, want under 40", delivered, perImpression)
	}
	runtime.KeepAlive(pipe)
}

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
