//go:build !race

package platform

import (
	"runtime"
	"testing"

	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/money"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/profile"
	"github.com/treads-project/treads/internal/stats"
	"github.com/treads-project/treads/internal/workload"
)

// TestUserTablesFootprint is the tripwire on the per-user rows a node keeps
// beside its profile store, for the two tables whose rows are a user's alone:
// delivery's user records and a pixel's visitors. 6 000 generated users, in
// a fixed shuffled order, each browse no slots, which makes the user's
// delivery record and nothing else, then each fire one pixel. A record
// grows the heap by 57 B/user: a 56-byte slot in a table indexed by the
// user's store ordinal, whose capacity stops at the population. A visitor
// costs 5.0 B: a 4-byte ordinal in the first-visit log, with the log's
// growth slack, and a bit. On a second node only a cohort browses, the
// 1 000 users with the lowest ordinals, as on a shard of treads_cluster,
// whose opted-in users are the first generated: a record costs 74 B per
// cohort user there, the table's growth slack included. Keyed by user ID,
// a record cost 100 B/user, 119 per cohort user, and a visitor 54 B.
//
// Then a user's account rows: on a node with 16 campaigns, and on one with
// 614, as many as treads_cluster's Treads, one per catalog attribute, each
// with frequency cap 1, every user browses 10 slots, so each impression is
// the user's first of its campaign and makes one 16-byte account row in the
// user's record, beside its 2- or 3-byte feed row. An impression costs
// 17.7 B at 16 campaigns and 27.4 B at 614, where a user holds about ten
// rows and the slice's growth slack shows. When billing kept the rows in a
// per-campaign map beside an 8-byte cap counter they cost 54.7 and 60.0 B.
// The bounds are 15 % over the five figures; the test measures, it does
// not ask for less. Excluded under -race, whose shadow memory inflates the
// heap.
func TestUserTablesFootprint(t *testing.T) {
	const users, cohort = 6000, 1000
	node := func() (*Platform, []profile.UserID, pixel.PixelID) {
		p := New(Config{Seed: 1, Users: users})
		cfg := workload.DefaultConfig()
		cfg.Users = users
		cfg.Catalog = attr.DefaultCatalog()
		var uids []profile.UserID
		workload.Each(cfg, func(u *profile.Profile) {
			if err := p.AddUser(u); err != nil {
				t.Fatal(err)
			}
			uids = append(uids, u.ID)
		})
		if err := p.RegisterAdvertiser("adv"); err != nil {
			t.Fatal(err)
		}
		px, err := p.IssuePixel("adv")
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(1)
		for _, part := range [][]profile.UserID{uids[:cohort], uids[cohort:]} { // the cohort stays first
			for i := len(part) - 1; i > 0; i-- {
				j := int(rng.Uint64() % uint64(i+1))
				part[i], part[j] = part[j], part[i]
			}
		}
		return p, uids, px
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	perUser := func(uids []profile.UserID, op func(profile.UserID) error) float64 {
		before := heap()
		for _, uid := range uids {
			if err := op(uid); err != nil {
				t.Fatal(err)
			}
		}
		grown := float64(int64(heap()) - int64(before))
		runtime.KeepAlive(uids)
		return grown / float64(len(uids))
	}
	browse := func(p *Platform) func(profile.UserID) error {
		return func(uid profile.UserID) error {
			_, err := p.BrowseFeed(uid, 0)
			return err
		}
	}

	p, uids, px := node()
	record := perUser(uids, browse(p))
	visitor := perUser(uids, func(uid profile.UserID) error { return p.VisitPage(uid, px) })
	runtime.KeepAlive(p)
	p, uids, _ = node()
	cohortRecord := perUser(uids[:cohort], browse(p))
	runtime.KeepAlive(p)
	t.Logf("%.1f B/user of delivery records, %.1f B/user of pixel visitors, %.1f B per cohort user of delivery records", record, visitor, cohortRecord)
	if record >= 66 || visitor >= 5.8 || cohortRecord >= 85 {
		t.Fatalf("at %d users a delivery record costs %.1f B and a pixel visitor %.1f B, and a record %.1f B per user of a %d-user cohort, want under 66, 5.8 and 85",
			users, record, visitor, cohortRecord, cohort)
	}

	for _, tc := range []struct {
		campaigns int
		bound     float64
	}{{16, 20.5}, {614, 31.5}} {
		p, uids, _ := node()
		cat := attr.DefaultCatalog().All()
		for _, a := range cat[:tc.campaigns] {
			if _, err := p.CreateCampaign("adv", CampaignParams{Spec: audience.Spec{Expr: attr.Has{ID: a.ID}},
				BidCapCPM: money.FromDollars(10), FrequencyCap: 1}); err != nil {
				t.Fatal(err)
			}
		}
		perUser(uids, browse(p)) // the records, so that only rows are measured
		before, impressions := heap(), 0
		for _, uid := range uids {
			imps, err := p.BrowseFeed(uid, 10)
			if err != nil {
				t.Fatal(err)
			}
			impressions += len(imps)
		}
		perRow := float64(int64(heap())-int64(before)) / float64(impressions)
		runtime.KeepAlive(p)
		t.Logf("%d campaigns: %.1f B per (campaign, user) account row over %d", tc.campaigns, perRow, impressions)
		if impressions < users || perRow >= tc.bound {
			t.Fatalf("at %d campaigns %d impressions, each a user's first of its campaign, grew the heap by %.1f B each, want at least %d impressions at under %.1f B",
				tc.campaigns, impressions, perRow, users, tc.bound)
		}
	}
}
