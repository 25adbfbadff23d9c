//go:build !race

package delivery

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
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

// TestFeedFootprint is the tripwire on what a delivered impression costs a
// shard to remember. 2 000 users, each in the audience of one campaign,
// first browse one slot — which creates the user's record and its account
// row with the campaign — and then 50 more: those 100 000 impressions may grow
// the live heap by under bound bytes each. A feed row is 2 bytes at 16
// campaigns, and 3 for most users at 614, as many campaigns as the paper's
// deployment has Treads (one per platform attribute); the rest is the slack
// append leaves. A feed kept as 8-byte rows of (ordinal, slot) cost 9 B; a
// row that points at its campaign costs 22; one that copies its campaign's
// advertiser and creative is 128 bytes before any slack. Neither the feed
// nor the account may hold a pointer, so the collector never scans a user's
// rows. Excluded under -race, whose shadow memory inflates the heap.
func TestFeedFootprint(t *testing.T) {
	for _, row := range []reflect.Type{reflect.TypeOf(userState{}.feed).Elem(), reflect.TypeOf(shownRow{})} {
		if hasPointer(row) {
			t.Errorf("%v holds a pointer", row)
		}
	}
	for _, tc := range []struct{ campaigns, bound int }{{16, 4}, {614, 5}} {
		t.Run(fmt.Sprintf("campaigns=%d", tc.campaigns), func(t *testing.T) {
			if perImpression := feedFootprint(t, tc.campaigns); perImpression >= float64(tc.bound) {
				t.Fatalf("an impression grew the heap by %.2f B, want under %d", perImpression, tc.bound)
			}
		})
	}
}

// feedFootprint returns the heap, per impression, that 50 more slots of
// every user of TestFeedFootprint's population grow a pipeline by.
func feedFootprint(t *testing.T, campaigns int) float64 {
	const users, perUser = 2000, 50
	store := profile.NewStore()
	for i := 0; i < users; i++ {
		p := profile.New(profile.UserID(fmt.Sprintf("u%04d", i)))
		p.SetAttr(attr.ID(fmt.Sprintf("test.feed.a%03d", i%campaigns)))
		if err := store.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	market := auction.Market{BaseCPM: money.FromDollars(2), Sigma: 0, Floor: money.FromDollars(0.1)}
	pipe := NewPipeline(store, audience.NewEngine(store, pixel.NewRegistry()), market, stats.NewRNG(1))
	for i := 0; i < campaigns; i++ {
		c := &Campaign{
			ID:           fmt.Sprintf("camp-%06d", i),
			Advertiser:   "an advertiser",
			Spec:         audience.Spec{Expr: attr.Has{ID: attr.ID(fmt.Sprintf("test.feed.a%03d", i))}},
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
	perImpression := float64(int64(after)-int64(before)) / float64(delivered)
	t.Logf("%.2f B/impression", perImpression)
	runtime.KeepAlive(pipe)
	return perImpression
}

// hasPointer reports whether a value of type t holds anything the collector
// must scan.
func hasPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointer(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	default: // pointers, slices, maps, strings, interfaces, channels, funcs
		return true
	}
}
